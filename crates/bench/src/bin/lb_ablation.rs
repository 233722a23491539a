//! Ablation — load-balancing strategy (DESIGN.md §5): session-aware
//! hashing vs round robin vs static placement vs none, on the same
//! 4-sensor product. "Individual, statically placed sensors may overload
//! or starve, and the protection of the network will be uneven" (§2.2).

use idse_bench::{cli, outln, standard_setup_with, table, STANDARD_SEED};
use idse_eval::StreamLedger;
use idse_ids::components::BalanceStrategy;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;

fn main() {
    let (common, mut out) = cli::shell("usage: lb_ablation [--seed N] [--jobs N] [--out PATH]");
    common.deny_json("lb_ablation");

    outln!(out, "=== Ablation: load-balancing strategies on a 4-sensor deployment ===\n");
    let (feed, request) = standard_setup_with(common.seed_or(STANDARD_SEED), common.jobs);
    let ledger = StreamLedger::of(&feed.test);
    // Offered load well above one sensor's capacity so the strategy
    // matters (tiled so buffers cannot absorb the burst).
    let hot = feed.test.time_scaled(1200.0).repeated(4);
    let hot_ledger = StreamLedger::of(&hot);

    let strategies = [
        BalanceStrategy::None,
        BalanceStrategy::StaticPartition,
        BalanceStrategy::RoundRobin,
        BalanceStrategy::SessionHash,
    ];
    let exec = request.executor();
    let rows = exec.par_map(&strategies, |_, strategy| {
        let mut product = IdsProduct::model(ProductId::FlowHunter);
        product.architecture.balance = *strategy;
        let run_config = RunConfig {
            sensitivity: Sensitivity::new(0.7),
            monitored_hosts: feed.servers.clone(),
            ..RunConfig::default()
        };
        let runner = PipelineRunner::new(product, run_config).with_training(&feed.training);
        let out = runner.run(&hot);
        let counts = hot_ledger.score_alerts(&out.alerts, &out.alert_truths);

        let loads: Vec<u64> = out.sensor_counters.iter().map(|c| c.processed).collect();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let min = *loads.iter().min().unwrap_or(&0) as f64;
        let imbalance = if min > 0.0 { max / min } else { f64::INFINITY };

        // Detection at normal load for the same strategy.
        let out_normal = runner.run(&feed.test);
        let normal_counts = ledger.score_alerts(&out_normal.alerts, &out_normal.alert_truths);

        vec![
            format!("{strategy:?}"),
            loads.iter().map(|l| l.to_string()).collect::<Vec<_>>().join("/"),
            if imbalance.is_finite() { format!("{imbalance:.1}x") } else { "∞".into() },
            format!("{:.3}", out.loss_ratio()),
            format!("{:.2}", counts.detection_rate()),
            format!("{:.2}", normal_counts.detection_rate()),
        ]
    });
    outln!(
        out,
        "{}",
        table(
            &[
                "Strategy",
                "Per-sensor processed (hot)",
                "Imbalance",
                "Loss (hot)",
                "Detect (hot)",
                "Detect (normal)",
            ],
            &rows
        )
    );
    outln!(
        out,
        "\nNone: one sensor takes the whole offered load — overload, loss, missed attacks."
    );
    outln!(out, "StaticPartition: placement spreads load unevenly (subnets differ in traffic),");
    outln!(out, "matching the paper's 'statically placed sensors may overload or starve'.");
    outln!(out, "RoundRobin: even load, but both directions of a session land on different");
    outln!(out, "sensors, splitting the stateful detectors' per-source view.");
    outln!(out, "SessionHash: even load AND session affinity — the paper's 'intelligent,");
    outln!(out, "dynamic' high anchor.");
    out.finish();
}
