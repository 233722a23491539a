//! §2.1 taxonomy ablation — "An IDS may be categorized by its detection
//! mechanism: anomaly-based, signature-based, or hybrid. … many of the
//! research endeavors have implemented a hybrid design."
//!
//! Same architecture (the distributed 4-sensor deployment), three engine
//! suites: signature-only, anomaly-only, and the parallel hybrid. The
//! hybrid unions the detection coverage and pays for it in per-packet
//! inspection cost — measurably lower zero-loss throughput.
//!
//! With `--store DIR` the three mechanism rows are committed to the
//! provenance-keyed run store, one product key per mechanism, so
//! `store history measure.zero_loss_pps --product "hybrid (parallel)"`
//! tracks the hybrid's inspection cost across commits.

use idse_bench::{cli, outln, standard_setup_with, table, STANDARD_SEED};
use idse_eval::provenance::{record_hybrid_taxonomy, HybridTaxonomyRow, StoreSpec};
use idse_eval::throughput::throughput_search;
use idse_eval::StreamLedger;
use idse_ids::engine::anomaly::AnomalyConfig;
use idse_ids::engine::signature::SignatureConfig;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{EngineSuite, IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::AttackClass;

fn variant(engines: EngineSuite) -> IdsProduct {
    let mut p = IdsProduct::model(ProductId::FlowHunter);
    p.engines = engines;
    p
}

const USAGE: &str = "usage: exp_hybrid_taxonomy [--seed N] [--jobs N] [--out PATH]\n\
                     \x20                          [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store_dir = args.opt("--store");
    let stamp = args.opt("--stamp");
    let git_rev = args.opt("--git-rev");
    let common = args.finish();
    common.deny_json("exp_hybrid_taxonomy");
    let mut out = cli::Out::new(&common);

    outln!(out, "=== §2.1 taxonomy: signature vs anomaly vs parallel hybrid ===\n");
    outln!(out, "Identical architecture (4 load-balanced sensors); only the detection");
    outln!(out, "mechanism differs. Sensitivity 0.8, cluster feed.\n");
    let (feed, request) = standard_setup_with(common.seed_or(STANDARD_SEED), common.jobs);
    let ledger = StreamLedger::of(&feed.test);

    let suites = [
        (
            "signature-only",
            EngineSuite {
                signature: Some(SignatureConfig::default()),
                anomaly: None,
                host_agents: false,
            },
        ),
        (
            "anomaly-only",
            EngineSuite {
                signature: None,
                anomaly: Some(AnomalyConfig::default()),
                host_agents: false,
            },
        ),
        (
            "hybrid (parallel)",
            EngineSuite {
                signature: Some(SignatureConfig::default()),
                anomaly: Some(AnomalyConfig::default()),
                host_agents: false,
            },
        ),
    ];

    let exec = request.executor();
    let probes = exec.par_map(&suites, |_, (_, engines)| {
        let product = variant(engines.clone());
        let out = PipelineRunner::new(
            product.clone(),
            RunConfig {
                sensitivity: Sensitivity::new(0.8),
                monitored_hosts: feed.servers.clone(),
                ..RunConfig::default()
            },
        )
        .with_training(&feed.training)
        .run(&feed.test);
        let c = ledger.score_alerts(&out.alerts, &out.alert_truths);
        let tp = throughput_search(&product, &feed, request.max_throughput_factor);
        (c, tp)
    });

    let mut rows = Vec::new();
    let mut class_rows: Vec<Vec<String>> =
        AttackClass::ALL.iter().map(|c| vec![c.name().to_owned()]).collect();
    for ((label, _), (c, tp)) in suites.iter().zip(&probes) {
        rows.push(vec![
            (*label).to_owned(),
            format!("{:.2}", c.detection_rate()),
            format!("{:.4}", c.false_positive_ratio()),
            format!("{:.0}", tp.zero_loss_pps),
            c.alert_count.to_string(),
        ]);
        for (row, class) in class_rows.iter_mut().zip(AttackClass::ALL.iter()) {
            row.push(match c.class_detection_rate(*class) {
                Some(r) => format!("{r:.2}"),
                None => "-".into(),
            });
        }
    }

    outln!(
        out,
        "{}",
        table(&["Mechanism", "Detection", "FP ratio", "Zero-loss pps", "Alerts"], &rows)
    );
    outln!(out, "Per-class detection rates:\n");
    outln!(out, "{}", table(&["Class", "signature", "anomaly", "hybrid"], &class_rows));
    outln!(out, "The hybrid unions the two coverage sets (the signature engine's known");
    outln!(out, "exploits + the anomaly engine's behavioral classes) and inherits both");
    outln!(out, "false-positive sources, while its per-packet cost — both engines run on");
    outln!(out, "every packet — buys the lowest zero-loss throughput of the three.");
    out.finish();

    if let Some(dir) = &store_dir {
        let spec = StoreSpec::new(dir).with_stamp(stamp).with_git_rev(git_rev);
        let store_rows: Vec<HybridTaxonomyRow> = suites
            .iter()
            .zip(&probes)
            .map(|((label, _), (c, tp))| HybridTaxonomyRow {
                mechanism: (*label).to_owned(),
                detection_rate: c.detection_rate(),
                fp_ratio: c.false_positive_ratio(),
                zero_loss_pps: tp.zero_loss_pps,
                alerts: c.alert_count,
            })
            .collect();
        match record_hybrid_taxonomy(&spec, &request, 0.8, &store_rows) {
            Ok(run) => eprintln!(
                "recorded run {} ({} records) in {}",
                run.header.run_id,
                run.header.records,
                spec.dir.display()
            ),
            Err(e) => {
                eprintln!("error: run store recording failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
