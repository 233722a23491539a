//! Canned datasets: build a labeled test feed, serialize it to JSON, load
//! it back, and replay it — the paper's "canned data with known attack
//! content" workflow that makes false-negative ratios observable and the
//! whole evaluation repeatable.
//!
//! ```text
//! cargo run --release -p idse-bench --example canned_dataset
//! ```

use idse_attacks::{Campaign, CampaignConfig};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::Trace;
use idse_sim::SimDuration;
use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};

fn main() {
    // 1. Compose the canned dataset: benign background + labeled campaign.
    let profile = SiteProfile::office_lan();
    let mut trace = RecordStream::new(StreamConfig::new(GeneratorConfig::new(
        profile.clone(),
        24.0,
        SimDuration::from_secs(20),
        0xca55e77e,
    )))
    .expect("rate in range")
    .collect_trace();
    let ccfg = CampaignConfig::new(SimDuration::from_secs(20), 0xa77ac);
    trace.merge(Campaign::standard_mix(&profile, &ccfg).generate(&ccfg));

    println!(
        "built: {} packets, {} attack packets across {} instances, {:.1} s span",
        trace.len(),
        trace.attack_packets(),
        trace.attack_instances().len(),
        trace.span().as_secs_f64()
    );

    // 2. Serialize — the portable artifact a lab can archive and replay.
    let json = trace.to_json();
    println!("serialized: {:.1} MiB of JSON", json.len() as f64 / (1024.0 * 1024.0));
    let reloaded = Trace::from_json(&json).expect("round trip");
    assert_eq!(reloaded.len(), trace.len());
    assert_eq!(reloaded.attack_packets(), trace.attack_packets());

    // 3. Replay through an IDS, twice — byte-identical inputs give
    //    identical alerts (scientific repeatability).
    let run = || {
        let runner = PipelineRunner::new(
            IdsProduct::model(ProductId::NidSentry),
            RunConfig { sensitivity: Sensitivity::new(0.7), ..RunConfig::default() },
        );
        runner.run(&reloaded)
    };
    let a = run();
    let b = run();
    assert_eq!(a.alerts.len(), b.alerts.len());
    println!("replayed twice: {} alerts both times (repeatable)", a.alerts.len());

    // 4. Replay the same dataset 4x faster — the throughput methodology.
    let fast = reloaded.time_scaled(4.0);
    let out = run_at(&fast);
    println!(
        "4x replay: offered {} monitored {} (loss {:.3})",
        out.offered,
        out.monitored,
        out.loss_ratio()
    );
}

fn run_at(trace: &Trace) -> idse_ids::pipeline::PipelineOutcome {
    PipelineRunner::new(
        IdsProduct::model(ProductId::NidSentry),
        RunConfig { sensitivity: Sensitivity::new(0.7), ..RunConfig::default() },
    )
    .run(trace)
}
