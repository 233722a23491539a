//! Figure 1 — the generalized network IDS architecture, instantiated per
//! product, with per-stage packet counts from a short run.

use idse_bench::{cli, outln, standard_setup_with, STANDARD_SEED};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;

fn main() {
    let (common, mut out) = cli::shell("usage: figure1 [--seed N] [--jobs N] [--out PATH]");
    common.deny_json("figure1");

    outln!(out, "=== Paper Figure 1: Generalized network IDS architecture ===\n");
    outln!(
        out,
        r#"  Internet --- Border Router --- [Load Balancer] --+-- Sensor --+
                                  (1c)             +-- Sensor --+--> Analyzer(s) --> Monitoring
                                                   +-- Sensor --+         |            Console
                                                   +-- Sensor --+         v              |
                                                              Management Console <-------+
                                                              (traffic control / response)
"#
    );
    outln!(out, "Subprocesses: 1. load balancing (optional)  2. sensing  3. analyzing");
    outln!(out, "              4. monitoring  5. managing (optional)\n");

    let (feed, request) = standard_setup_with(common.seed_or(STANDARD_SEED), common.jobs);
    let exec = request.executor();
    let products = IdsProduct::all_models();
    let walks = exec.par_map(&products, |_, product| {
        let run_config = RunConfig {
            sensitivity: Sensitivity::new(0.6),
            monitored_hosts: feed.servers.clone(),
            ..RunConfig::default()
        };
        PipelineRunner::new(product.clone(), run_config)
            .with_training(&feed.training)
            .run(&feed.test)
    });
    for (product, walk) in products.iter().zip(&walks) {
        let arch = &product.architecture;
        outln!(out, "--- {} ---", product.id.name());
        outln!(
            out,
            "  tap {:?} | balance {:?} | sensors {} | analyzers {}{} | console {}",
            arch.tap,
            arch.balance,
            arch.sensors,
            arch.analyzers,
            if arch.combined_sensor_analyzer { " (combined with sensors)" } else { "" },
            if arch.response.firewall || arch.response.router || arch.response.snmp {
                "yes"
            } else {
                "no"
            }
        );
        if let Some(lb) = walk.lb_counters {
            outln!(
                out,
                "  load balancer: offered {} processed {} dropped {}",
                lb.offered,
                lb.processed,
                lb.dropped
            );
        }
        for (i, s) in walk.sensor_counters.iter().enumerate() {
            outln!(
                out,
                "  sensor[{i}]: offered {} processed {} dropped {}",
                s.offered,
                s.processed,
                s.dropped
            );
        }
        for (i, a) in walk.analyzer_counters.iter().enumerate() {
            if a.offered > 0 {
                outln!(
                    out,
                    "  analyzer[{i}]: offered {} processed {} dropped {}",
                    a.offered,
                    a.processed,
                    a.dropped
                );
            }
        }
        outln!(
            out,
            "  monitor: {} alerts surfaced | monitored {}/{} in-scope packets\n",
            walk.alerts.len(),
            walk.monitored,
            walk.offered
        );
    }
    out.finish();
}
