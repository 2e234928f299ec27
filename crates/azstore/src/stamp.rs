//! The storage stamp: wiring for the three services plus per-VM client
//! attachment.
//!
//! A *stamp* is Azure's unit of storage deployment (a cluster with a
//! front-end layer, a partition layer and a replicated stream layer).
//! The paper treats it as a black box; we wire its observable surfaces:
//! shared egress/ingest pipes with the calibrated capacity and
//! degradation behaviour (Fig 1), load-dependent service stations and
//! contended latches inside the partition layer (Figs 2–3), and the
//! client-visible error taxonomy (Table 2).

use std::rc::Rc;

use dcnet::{LinkId, LinkModel, Network};
use simcore::prelude::*;

use crate::blob::{BlobClient, BlobService};
use crate::calib;
use crate::queue::{QueueClient, QueueService};
use crate::table::{TableClient, TableService};

/// Reliability-injection switches (all rates in `calib`).
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Master switch; experiments run clean, ModisAzure runs with faults.
    pub enabled: bool,
    /// P(connection setup failure) per operation.
    pub connection_fail_p: f64,
    /// P(payload corruption) per blob GET.
    pub corrupt_read_p: f64,
    /// P(mid-transfer abort) per blob GET.
    pub read_fail_p: f64,
    /// P(spurious ServerBusy) per operation.
    pub spurious_busy_p: f64,
    /// P(internal error) per operation.
    pub internal_error_p: f64,
}

impl FaultProfile {
    /// Everything off — microbenchmark conditions.
    pub fn clean() -> Self {
        FaultProfile {
            enabled: false,
            connection_fail_p: 0.0,
            corrupt_read_p: 0.0,
            read_fail_p: 0.0,
            spurious_busy_p: 0.0,
            internal_error_p: 0.0,
        }
    }

    /// Rates calibrated to the ModisAzure Table 2 breakdown.
    pub fn production() -> Self {
        Self::from_storage(simfault::StorageFaults::paper())
    }

    /// Adopt the steady-state rates of a simfault plan's storage block.
    pub fn from_plan(plan: &simfault::FaultPlan) -> Self {
        Self::from_storage(plan.storage)
    }

    fn from_storage(s: simfault::StorageFaults) -> Self {
        FaultProfile {
            enabled: s.enabled,
            connection_fail_p: s.connection_fail_p,
            corrupt_read_p: s.corrupt_read_p,
            read_fail_p: s.read_fail_p,
            spurious_busy_p: s.spurious_busy_p,
            internal_error_p: s.internal_error_p,
        }
    }
}

/// Stamp-level configuration.
#[derive(Debug, Clone)]
pub struct StampConfig {
    /// Service-time jitter (lognormal sigma).
    pub jitter_sigma: f64,
    /// Fault injection profile.
    pub faults: FaultProfile,
    /// Client-side per-operation timeout.
    pub op_timeout: SimDuration,
    /// ABLATION: disable the per-flow front-end ceiling on blob reads
    /// (Fig 1's per-client decline mechanism). For the `ablations`
    /// binary; leave false for faithful reproduction.
    pub ablate_no_frontend_ceiling: bool,
    /// ABLATION: disable contention inflation of mutation latch holds
    /// (Fig 2/3's post-peak decline mechanism).
    pub ablate_no_latch_inflation: bool,
    /// Front-end admission policy, consulted at op entry before any
    /// station or latch is touched. `AdmissionConfig::None` (the
    /// default) reproduces the paper's observed behaviour — no gate,
    /// overload rots in the queues.
    pub admission: crate::admit::AdmissionConfig,
    /// Shared capacity dial for the table/queue station fleets (the
    /// elastic campaign's scaling hook; see
    /// [`CapacityScale`](crate::station::CapacityScale)). Cloning the
    /// config shares the dial. Defaults to the calibrated reference
    /// capacity (`r = 1`), which leaves every formula bit-identical.
    pub capacity: crate::station::CapacityScale,
    /// Prefix for this stamp's named RNG streams. `Sim::rng` derives a
    /// stream purely from `(seed, label)`, so two stamps on one `Sim`
    /// would otherwise draw *identical* jitter/fault sequences. A geo
    /// set gives each stamp a distinct scope (`"s0."`, `"s1."`, …); the
    /// default empty scope leaves every existing stream label — and
    /// therefore every single-stamp artifact — byte-identical.
    pub rng_scope: String,
}

impl StampConfig {
    /// Apply this stamp's [`StampConfig::rng_scope`] to a stream label.
    /// The empty scope returns the label unchanged, preserving every
    /// pre-geo stream name byte for byte.
    pub fn scoped(&self, label: &str) -> String {
        if self.rng_scope.is_empty() {
            label.to_string()
        } else {
            format!("{}{}", self.rng_scope, label)
        }
    }
}

impl Default for StampConfig {
    fn default() -> Self {
        StampConfig {
            jitter_sigma: calib::SERVICE_JITTER_SIGMA,
            faults: FaultProfile::clean(),
            op_timeout: SimDuration::from_secs_f64(calib::CLIENT_OP_TIMEOUT_S),
            ablate_no_frontend_ceiling: false,
            ablate_no_latch_inflation: false,
            admission: crate::admit::AdmissionConfig::None,
            capacity: crate::station::CapacityScale::unit(),
            rng_scope: String::new(),
        }
    }
}

/// Shared pipes of one blob namespace (upload path; per-blob read pipes
/// are created lazily by the service itself).
#[derive(Clone, Copy)]
pub(crate) struct BlobLinks {
    /// Shared ingest pipe (~125 MB/s).
    pub ingest: LinkId,
    /// Upload front-end per-flow ceiling.
    pub ul_frontend: LinkId,
}

/// One simulated storage stamp.
pub struct StorageStamp {
    sim: Sim,
    net: Network,
    cfg: StampConfig,
    blobs: Rc<BlobService>,
    tables: Rc<TableService>,
    queues: Rc<QueueService>,
    next_client: std::cell::Cell<u64>,
}

impl StorageStamp {
    /// Create a stamp inside `net` (shared with any topology so client
    /// NIC links and storage pipes carry joint traffic).
    pub fn new(sim: &Sim, net: &Network, cfg: StampConfig) -> Rc<Self> {
        let blob_links = BlobLinks {
            ingest: net.add_link(
                "stamp.blob.ingest",
                LinkModel::Shared {
                    capacity: calib::BLOB_INGEST_BPS,
                },
            ),
            ul_frontend: net.add_link(
                "stamp.blob.fe.ul",
                LinkModel::PerFlow {
                    base: calib::BLOB_UL_PERFLOW_BASE,
                    beta: calib::BLOB_UL_PERFLOW_BETA,
                    exponent: calib::BLOB_UL_PERFLOW_EXP,
                },
            ),
        };
        let blobs = BlobService::new(sim, net, blob_links, &cfg);
        let tables = TableService::new(sim, &cfg);
        let queues = QueueService::new(sim, &cfg);
        Rc::new(StorageStamp {
            sim: sim.clone(),
            net: net.clone(),
            cfg,
            blobs,
            tables,
            queues,
            next_client: std::cell::Cell::new(0),
        })
    }

    /// Convenience: stamp with its own private network.
    pub fn standalone(sim: &Sim, cfg: StampConfig) -> Rc<Self> {
        let net = Network::new(sim);
        Self::new(sim, &net, cfg)
    }

    /// The simulation.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The network carrying this stamp's pipes.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Stamp configuration.
    pub fn config(&self) -> &StampConfig {
        &self.cfg
    }

    /// The blob service (server-side handle; use clients for ops).
    pub fn blob_service(&self) -> &Rc<BlobService> {
        &self.blobs
    }

    /// The table service.
    pub fn table_service(&self) -> &Rc<TableService> {
        &self.tables
    }

    /// The queue service.
    pub fn queue_service(&self) -> &Rc<QueueService> {
        &self.queues
    }

    /// Stamp-wide admission totals `(accepted, shed)` summed over the
    /// three services' front doors. Zero when admission is off.
    pub fn admission_stats(&self) -> (u64, u64) {
        let mut acc = 0;
        let mut shed = 0;
        for door in [
            self.blobs.front_door(),
            self.tables.front_door(),
            self.queues.front_door(),
        ]
        .into_iter()
        .flatten()
        {
            acc += door.accepted();
            shed += door.shed();
        }
        (acc, shed)
    }

    /// Stamp-wide `ContendedLatch` shed total (station-level ServerBusy
    /// responses, as opposed to front-door sheds).
    pub fn latch_shed_total(&self) -> u64 {
        self.tables.latch_shed_total() + self.queues.latch_shed_total()
    }

    /// Attach a client VM with the given per-VM storage-bandwidth
    /// allocation (13 MB/s for a 2009 small instance). Creates the VM's
    /// two storage-throttle links and returns clients for all three
    /// services.
    pub fn attach_client(&self, storage_bps: f64) -> StorageAccountClient {
        let id = self.next_client.get();
        self.next_client.set(id + 1);
        let ingress = self.net.add_link(
            format!("client{id}.storage.in"),
            LinkModel::Shared {
                capacity: storage_bps,
            },
        );
        let egress = self.net.add_link(
            format!("client{id}.storage.out"),
            LinkModel::Shared {
                capacity: storage_bps,
            },
        );
        StorageAccountClient {
            blob: BlobClient::new(&self.blobs, ingress, egress, id),
            table: TableClient::new(&self.tables, id),
            queue: QueueClient::new(&self.queues, id),
        }
    }

    /// Attach with the small-instance default allocation.
    pub fn attach_small_client(&self) -> StorageAccountClient {
        self.attach_client(calib::SMALL_VM_STORAGE_BPS)
    }

    /// Attach `n` small-instance clients at once — the issue path for
    /// open-loop fleets (`simload`), which dispatch each scheduled
    /// arrival to `clients[arrival_index % n]`. Client ids (and thus
    /// their throttle-link names and RNG streams) are assigned in
    /// ascending order, so a fleet is one deterministic unit no matter
    /// how many arrivals later land on each VM.
    pub fn attach_small_fleet(&self, n: usize) -> Vec<StorageAccountClient> {
        (0..n).map(|_| self.attach_small_client()).collect()
    }
}

/// Per-VM bundle of service clients.
pub struct StorageAccountClient {
    /// Blob operations from this VM.
    pub blob: BlobClient,
    /// Table operations from this VM.
    pub table: TableClient,
    /// Queue operations from this VM.
    pub queue: QueueClient,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Entity;

    #[test]
    fn stamp_builds_and_attaches_clients() {
        let sim = Sim::new(1);
        let stamp = StorageStamp::standalone(&sim, StampConfig::default());
        let c1 = stamp.attach_small_client();
        let c2 = stamp.attach_small_client();
        // Distinct clients get distinct throttle links.
        assert_ne!(c1.blob.ingress_link(), c2.blob.ingress_link());

        // 64 attached clients insert concurrently through the latches,
        // and the service counts every insert once.
        let sim = Sim::new(4);
        let stamp = StorageStamp::standalone(&sim, StampConfig::default());
        for ci in 0..64 {
            let client = stamp.attach_small_client();
            sim.spawn(async move {
                for i in 0..20 {
                    let e = Entity::benchmark("p", &format!("c{ci}-r{i}"), 4);
                    client.table.insert("t", e).await.unwrap();
                }
            });
        }
        sim.run();
        assert_eq!(stamp.table_service().ops(), 64 * 20);
    }

    #[test]
    fn fault_profiles() {
        assert!(!FaultProfile::clean().enabled);
        let p = FaultProfile::production();
        assert!(p.enabled);
        assert!(p.connection_fail_p > 0.0 && p.connection_fail_p < 0.01);
    }
}
