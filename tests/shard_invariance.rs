//! The simlab determinism contract (DESIGN.md §6): a campaign's merged
//! output — stdout, artifact files, anchor verdicts, manifest entry —
//! is byte-identical for any `--shards N`, because cells are assigned
//! to shards by a fixed rule and merged in canonical cell order.

use bench::campaigns::{self, CampaignOutput};
use simfault::FaultPlan;
use simlab::{CampaignEntry, Manifest, RunOpts};

fn run_at(name: &str, shards: usize, faults: Option<FaultPlan>) -> CampaignOutput {
    let opts = RunOpts {
        shards,
        faults,
        trace: None,
        tau: None,
    };
    let campaign = campaigns::canonical(name).expect("known campaign name");
    (campaign.run)(true, &opts)
}

/// Wrap a campaign output in a one-campaign manifest with a fixed
/// header, so the normalized JSON isolates the campaign-dependent part.
fn manifest_json(out: CampaignOutput) -> String {
    Manifest {
        quick: true,
        shards: 0,
        faults: "n/a".to_string(),
        campaigns: vec![CampaignEntry {
            name: out.name.to_string(),
            cells: out.cells,
            wall_us: 123,
            anchors: out.anchors,
            artifacts: out.files.into_iter().map(|(n, _)| n).collect(),
        }],
    }
    .to_json_normalized()
}

fn assert_shard_invariant(name: &str, faults: Option<FaultPlan>) {
    let a = run_at(name, 1, faults.clone());
    let b = run_at(name, 8, faults);
    // `azlab bench` reports the planned count without running the
    // campaign; it must be the count the runner executed.
    let campaign = campaigns::canonical(name).expect("known campaign name");
    assert_eq!(
        a.cells,
        (campaign.cell_count)(true),
        "{name}: executed cell count differs from the planned cell_count"
    );
    assert_eq!(
        a.stdout, b.stdout,
        "{name}: stdout differs between 1 and 8 shards"
    );
    assert_eq!(
        a.files, b.files,
        "{name}: artifact files differ between 1 and 8 shards"
    );
    let lines_a: Vec<String> = a.anchors.iter().map(|c| c.line()).collect();
    let lines_b: Vec<String> = b.anchors.iter().map(|c| c.line()).collect();
    assert_eq!(
        lines_a, lines_b,
        "{name}: anchor verdicts differ between 1 and 8 shards"
    );
    assert_eq!(
        manifest_json(a),
        manifest_json(b),
        "{name}: normalized manifest entry differs between 1 and 8 shards"
    );
}

#[test]
fn fig1_quick_is_shard_invariant() {
    assert_shard_invariant("fig1", None);
}

/// Fig 2 runs two sweeps through the same sharded runner: the 4 kB grid
/// and then the 64 kB insert cliff.
#[test]
fn fig2_quick_is_shard_invariant() {
    assert_shard_invariant("fig2", None);
}

#[test]
fn fig3_quick_is_shard_invariant() {
    assert_shard_invariant("fig3", None);
}

#[test]
fn fig4_quick_is_shard_invariant() {
    assert_shard_invariant("fig4", None);
}

#[test]
fn fig5_quick_is_shard_invariant() {
    assert_shard_invariant("fig5", None);
}

/// The ablation cells include a whole Fig 5 bandwidth sweep run serially
/// inside one cell; the merged sections must not depend on sharding.
#[test]
fn ablations_quick_is_shard_invariant() {
    assert_shard_invariant("ablations", None);
}

/// The day-segmented ModisAzure campaign: segments merge with
/// cumulative day offsets, so the reassembled Table 2 / Fig 7 must not
/// depend on which worker simulated which segment.
#[test]
fn modis_quick_is_shard_invariant() {
    assert_shard_invariant("modis", None);
}

/// The open-loop frontier campaign: arrival schedules are drawn
/// up-front from a dedicated RNG stream per cell, so the sweep (and the
/// knee/anchor lines derived from it) must not depend on sharding.
#[test]
fn frontier_quick_is_shard_invariant() {
    assert_shard_invariant("frontier", None);
}

/// Frontier under fault injection: crashes and partitions perturb the
/// open-loop measurements, but identically on every shard layout.
#[test]
fn frontier_quick_under_faults_is_shard_invariant() {
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    assert_shard_invariant("frontier", Some(plan));
}

/// Fault injection rides the same contract: the plan is installed on
/// whichever worker thread runs each cell, so an injected campaign is
/// as shard-invariant as a clean one.
#[test]
fn fig1_quick_under_faults_is_shard_invariant() {
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    assert_shard_invariant("fig1", Some(plan));
}

/// A fault plan must actually change the outcome (i.e. it reaches the
/// sweep workers) — guards against the historical gap where `--faults`
/// only armed the main thread.
#[test]
fn faults_reach_sharded_workers() {
    let clean = run_at("fig1", 8, None);
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    let injected = run_at("fig1", 8, Some(plan));
    assert_ne!(
        clean.stdout, injected.stdout,
        "crash-partition plan had no effect on sharded fig1 cells"
    );
}

/// The shedding campaign: admission decisions, budgeted retries and
/// the per-cell storm overlay all ride the same contract — the policy
/// state machines are RNG-free and the storm plan is merged and
/// installed per cell, so the sweep must not depend on sharding.
#[test]
fn shedding_quick_is_shard_invariant() {
    assert_shard_invariant("shedding", None);
}

/// Shedding under a user fault plan: the per-cell front-end storm is
/// *merged into* the `--faults` plan (nested install), and the merged
/// outcome must still be identical on every shard layout.
#[test]
fn shedding_quick_under_faults_is_shard_invariant() {
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    assert_shard_invariant("shedding", Some(plan));
}

/// The elastic campaign: each cell runs a full control loop (arrival
/// schedule, fabric deployments, policy decisions, billing) on its own
/// `Sim`, and its crash cells merge host-crash episodes into the cell
/// plan — none of which may depend on which worker ran the cell.
#[test]
fn elastic_quick_is_shard_invariant() {
    assert_shard_invariant("elastic", None);
}

/// Elastic under a user fault plan: storage fault rates and the
/// preset's own episodes layer under the campaign's per-cell crash
/// episodes, identically on every shard layout.
#[test]
fn elastic_quick_under_faults_is_shard_invariant() {
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    assert_shard_invariant("elastic", Some(plan));
}

/// The faas campaign: each cell draws its invocation trace from a
/// dedicated RNG stream before any fabric randomness, then runs tens
/// of thousands of container routings, policy decisions and emergent
/// cold starts — all byte-reproducible per cell, so the merged frontier
/// must not depend on which worker ran which cell.
#[test]
fn faas_quick_is_shard_invariant() {
    assert_shard_invariant("faas", None);
}

/// Faas under a user fault plan: the preset's episodes layer under the
/// campaign's own mid-window host outage (crash cells nest both), and
/// idle-container reaping off dead hosts must replay identically on
/// every shard layout.
#[test]
fn faas_quick_under_faults_is_shard_invariant() {
    let plan = FaultPlan::by_name("crash-partition").expect("preset");
    assert_shard_invariant("faas", Some(plan));
}

/// The geo campaign: every cell runs a whole multi-stamp set (stamps
/// with scoped RNG streams, the replication shipper, the health
/// monitor, the rebalancer) on its own `Sim`, and the merged output
/// includes the failover/rebalance decision log — none of which may
/// depend on which worker ran the cell.
#[test]
fn geo_quick_is_shard_invariant() {
    assert_shard_invariant("geo", None);
}

/// Geo under a user-level stamp-partition plan: a whole-run stamp-1
/// outage layers under the campaign's own per-cell stamp-0 partitions
/// (failover cells merge both), and death detection, promotions and
/// lost tails must replay identically on every shard layout.
#[test]
fn geo_quick_under_stamp_partition_is_shard_invariant() {
    use simfault::{FaultEpisode, FaultKind, StorageFaults};
    let plan = FaultPlan {
        name: "stamp-partition",
        storage: StorageFaults::clean(),
        episodes: vec![FaultEpisode {
            start_s: 4.0,
            duration_s: 600.0,
            kind: FaultKind::StampPartition { stamp: 1 },
        }],
    };
    assert_shard_invariant("geo", Some(plan));
}

/// The consistency campaign: every cell routes tens of thousands of
/// reads through the azroute policy layer (seed-pure RTT matrix,
/// per-client session tokens, staleness measured from the replication
/// logs) plus a front-door baseline cell — the merged frontier table,
/// the bounded-staleness audit and the routing fingerprints in the CSV
/// must not depend on which worker ran which cell.
#[test]
fn consistency_quick_is_shard_invariant() {
    assert_shard_invariant("consistency", None);
}

/// Consistency under a user-level stamp-partition plan: a whole-run
/// stamp-1 outage layers under the campaign's own per-cell stamp-0
/// partitions (partition cells merge both), and timeouts, escalations,
/// promotions and the RTO-window availability split must replay
/// identically on every shard layout.
#[test]
fn consistency_quick_under_stamp_partition_is_shard_invariant() {
    use simfault::{FaultEpisode, FaultKind, StorageFaults};
    let plan = FaultPlan {
        name: "stamp-partition",
        storage: StorageFaults::clean(),
        episodes: vec![FaultEpisode {
            start_s: 4.0,
            duration_s: 600.0,
            kind: FaultKind::StampPartition { stamp: 1 },
        }],
    };
    assert_shard_invariant("consistency", Some(plan));
}
