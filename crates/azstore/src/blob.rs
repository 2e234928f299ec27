//! The blob service (paper §3.1, Fig 1).
//!
//! Blobs are modelled by size: payload *content* never exists, but every
//! byte is accounted for as a fluid flow through the calibrated pipes —
//! shared single-blob egress (3 × 1 GigE replicas ⇒ ~400 MB/s,
//! degrading past 128 readers), the front-end per-flow ceiling (RTT
//! inflation under concurrency; halves by ~32 clients), the ~125 MB/s
//! ingest pipe, and the requesting VM's own storage-bandwidth throttle.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dcnet::{LinkId, Network};
use simcore::prelude::*;

use simfault::RetryPolicy;
use simtrace::Layer;

use crate::calib;
use crate::error::{Result, StorageError};
use crate::stamp::{BlobLinks, StampConfig};
use crate::station::jitter;
use crate::trace_outcome;

/// Metadata of one stored blob.
#[derive(Debug, Clone)]
pub struct BlobMeta {
    /// Payload size in bytes.
    pub size: f64,
    /// Creation time.
    pub created: SimTime,
    /// Write-generation tag (changes on overwrite).
    pub etag: u64,
}

/// Outcome of a completed download.
#[derive(Debug, Clone, Copy)]
pub struct DownloadStats {
    /// Bytes received.
    pub bytes: f64,
    /// Total operation time (request + transfer).
    pub elapsed: SimDuration,
}

impl DownloadStats {
    /// Average goodput in bytes/s.
    pub fn rate_bps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes / s
        }
    }
}

struct BlobState {
    // container -> name -> meta
    containers: HashMap<String, HashMap<String, BlobMeta>>,
    next_etag: u64,
}

/// One blob's read pipes: its replica-set egress link and its
/// partition-server front-end link.
type ReadPipes = (LinkId, LinkId);

/// Server-side blob service.
pub struct BlobService {
    sim: Sim,
    net: Network,
    links: BlobLinks,
    cfg: StampConfig,
    state: RefCell<BlobState>,
    // Per-blob read pipes: the paper's ~400 MB/s ceiling is "against a
    // single blob" (three replicas of THAT blob), and the per-flow
    // front-end ceiling is that blob's partition server inflating RTTs
    // under load. Different blobs live on different replica sets and
    // partition servers — which is exactly why §6.1 recommends
    // replicating hot data across blobs. Keyed by container, then blob
    // name, so a lookup borrows both.
    egress_links: RefCell<HashMap<String, HashMap<String, ReadPipes>>>,
    rng: RefCell<SimRng>,
    gets: std::cell::Cell<u64>,
    puts: std::cell::Cell<u64>,
    door: Option<Rc<crate::admit::FrontDoor>>,
}

impl BlobService {
    pub(crate) fn new(sim: &Sim, net: &Network, links: BlobLinks, cfg: &StampConfig) -> Rc<Self> {
        Rc::new(BlobService {
            sim: sim.clone(),
            net: net.clone(),
            links,
            cfg: cfg.clone(),
            state: RefCell::new(BlobState {
                containers: HashMap::new(),
                next_etag: 1,
            }),
            egress_links: RefCell::new(HashMap::new()),
            rng: RefCell::new(sim.rng(&cfg.scoped("blob.service"))),
            gets: std::cell::Cell::new(0),
            puts: std::cell::Cell::new(0),
            door: crate::admit::FrontDoor::build(sim, &cfg.admission),
        })
    }

    /// The service's admission gate, when one is configured.
    pub fn front_door(&self) -> Option<&Rc<crate::admit::FrontDoor>> {
        self.door.as_ref()
    }

    /// Front-door admission check (no-op `Ok(None)` when admission is
    /// off). Runs synchronously at op entry, before any await.
    fn admit(&self) -> Result<Option<crate::admit::AdmitPermit>> {
        match &self.door {
            Some(d) => d.admit().map(Some),
            None => Ok(None),
        }
    }

    /// Total GETs served (statistic).
    pub fn gets(&self) -> u64 {
        self.gets.get()
    }

    /// Total PUTs served.
    pub fn puts(&self) -> u64 {
        self.puts.get()
    }

    /// Directly seed a blob without timing (test/bootstrap fixture).
    pub fn seed(&self, container: &str, name: &str, size: f64) {
        let mut st = self.state.borrow_mut();
        let etag = st.next_etag;
        st.next_etag += 1;
        st.containers
            .entry(container.to_string())
            .or_default()
            .insert(
                name.to_string(),
                BlobMeta {
                    size,
                    created: self.sim.now(),
                    etag,
                },
            );
    }

    /// Number of blobs in a container.
    pub fn container_len(&self, container: &str) -> usize {
        self.state
            .borrow()
            .containers
            .get(container)
            .map_or(0, |c| c.len())
    }

    fn lookup(&self, container: &str, name: &str) -> Option<BlobMeta> {
        self.state
            .borrow()
            .containers
            .get(container)
            .and_then(|c| c.get(name))
            .cloned()
    }

    /// The replica-set egress pipe and partition-server front-end of one
    /// blob (created on first use).
    fn read_pipes_of(&self, container: &str, name: &str) -> ReadPipes {
        let known = self
            .egress_links
            .borrow()
            .get(container)
            .and_then(|blobs| blobs.get(name))
            .copied();
        if let Some(pair) = known {
            return pair;
        }
        let egress = self.net.add_link(
            format!("blob.egress/{container}/{name}"),
            dcnet::LinkModel::SharedDegrading {
                capacity: calib::BLOB_EGRESS_BPS,
                knee: calib::BLOB_EGRESS_KNEE,
                gamma: calib::BLOB_EGRESS_GAMMA,
            },
        );
        let beta = if self.cfg.ablate_no_frontend_ceiling {
            1.0e12 // effectively flat: no RTT inflation with concurrency
        } else {
            calib::BLOB_DL_PERFLOW_BETA
        };
        let frontend = self.net.add_link(
            format!("blob.fe/{container}/{name}"),
            dcnet::LinkModel::PerFlow {
                base: calib::BLOB_DL_PERFLOW_BASE,
                beta,
                exponent: calib::BLOB_DL_PERFLOW_EXP,
            },
        );
        self.egress_links
            .borrow_mut()
            .entry(container.to_string())
            .or_default()
            .insert(name.to_string(), (egress, frontend));
        (egress, frontend)
    }

    fn fault_check(&self, p: f64) -> bool {
        self.cfg.faults.enabled && self.rng.borrow_mut().chance(p)
    }

    /// Connection-level fault draw, in `RetryPolicy` precheck form.
    fn connection_precheck(&self) -> Option<StorageError> {
        if self.fault_check(self.cfg.faults.connection_fail_p) {
            Some(StorageError::ConnectionFailed)
        } else {
            None
        }
    }

    /// GET-path fault draws (connection, spurious busy, internal), in
    /// the original short-circuit order.
    fn get_precheck(&self) -> Option<StorageError> {
        if self.fault_check(self.cfg.faults.connection_fail_p) {
            Some(StorageError::ConnectionFailed)
        } else if self.fault_check(self.cfg.faults.spurious_busy_p) {
            Some(StorageError::ServerBusy)
        } else if self.fault_check(self.cfg.faults.internal_error_p) {
            Some(StorageError::Internal)
        } else {
            None
        }
    }

    /// PUT-path fault draws (connection, spurious busy).
    fn put_precheck(&self) -> Option<StorageError> {
        if self.fault_check(self.cfg.faults.connection_fail_p) {
            Some(StorageError::ConnectionFailed)
        } else if self.fault_check(self.cfg.faults.spurious_busy_p) {
            Some(StorageError::ServerBusy)
        } else {
            None
        }
    }

    /// Blob transfers had no automatic retry or client timeout in the
    /// 2009 SDK (an 80 s gigablob download is not a hung op), so the
    /// policy is a bare single attempt — the precheck is its whole job.
    fn op_policy(&self) -> RetryPolicy {
        RetryPolicy::none()
    }

    async fn request_overhead(&self) {
        let s =
            calib::BLOB_REQ_LATENCY_S * jitter(&mut self.rng.borrow_mut(), self.cfg.jitter_sigma);
        self.sim.delay(SimDuration::from_secs_f64(s)).await;
    }
}

/// Per-VM blob client.
pub struct BlobClient {
    svc: Rc<BlobService>,
    /// The VM's storage-download throttle link.
    ingress: LinkId,
    /// The VM's storage-upload throttle link.
    egress: LinkId,
    client_id: u64,
}

impl BlobClient {
    pub(crate) fn new(
        svc: &Rc<BlobService>,
        ingress: LinkId,
        egress: LinkId,
        client_id: u64,
    ) -> Self {
        BlobClient {
            svc: Rc::clone(svc),
            ingress,
            egress,
            client_id,
        }
    }

    /// This client's download throttle link (tests).
    pub fn ingress_link(&self) -> LinkId {
        self.ingress
    }

    /// Download a blob; bytes flow through
    /// `[blob egress → download front-end → VM throttle]`.
    pub async fn get(&self, container: &str, name: &str) -> Result<DownloadStats> {
        let sp = simtrace::span(Layer::Store, "blob.get", || format!("{container}/{name}"));
        let res = self.get_traced(&sp, container, name).await;
        trace_outcome(&sp, &res);
        res
    }

    async fn get_traced(
        &self,
        sp: &simtrace::Span,
        container: &str,
        name: &str,
    ) -> Result<DownloadStats> {
        let svc = &self.svc;
        let op = async {
            // Data-path ops pass the front door; metadata ops
            // (exists/list/delete) are cheap enough to stay ungated.
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let fe = sp.child("frontend", || "request".into());
            svc.request_overhead().await;
            fe.end();
            let meta = svc.lookup(container, name).ok_or(StorageError::NotFound)?;
            if sp.is_recording() {
                sp.attr("bytes", format!("{:.0}", meta.size));
            }
            if svc.fault_check(svc.cfg.faults.read_fail_p) {
                // Abort partway: some bytes moved, time was spent.
                let frac = svc.rng.borrow_mut().f64() * 0.8 + 0.1;
                let (egress, frontend) = svc.read_pipes_of(container, name);
                let path = [egress, frontend, self.ingress];
                let st = sp.child("stream", || "replica_egress".into());
                svc.net
                    .transfer(&path, meta.size * frac, f64::INFINITY)
                    .await;
                st.end();
                return Err(StorageError::ReadFailed);
            }
            let started = svc.sim.now();
            let (egress, frontend) = svc.read_pipes_of(container, name);
            let path = [egress, frontend, self.ingress];
            let st = sp.child("stream", || "replica_egress".into());
            let stats = svc.net.transfer(&path, meta.size, f64::INFINITY).await;
            st.end();
            svc.gets.set(svc.gets.get() + 1);
            if svc.fault_check(svc.cfg.faults.corrupt_read_p) {
                return Err(StorageError::CorruptRead);
            }
            Ok(DownloadStats {
                bytes: stats.bytes,
                elapsed: svc.sim.now() - started
                    + SimDuration::from_secs_f64(calib::BLOB_REQ_LATENCY_S),
            })
        };
        svc.op_policy()
            .run_once(
                &svc.sim,
                || svc.get_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await
    }

    /// Upload (create or overwrite); bytes flow through
    /// `[VM throttle → upload front-end → ingest]`.
    pub async fn put(&self, container: &str, name: &str, size: f64) -> Result<DownloadStats> {
        self.put_inner(container, name, size, true).await
    }

    /// Upload only if the blob does not exist yet; the ModisAzure
    /// create-if-absent idiom whose failure mode is the paper's
    /// "Blob already exists".
    pub async fn put_new(&self, container: &str, name: &str, size: f64) -> Result<DownloadStats> {
        self.put_inner(container, name, size, false).await
    }

    async fn put_inner(
        &self,
        container: &str,
        name: &str,
        size: f64,
        overwrite: bool,
    ) -> Result<DownloadStats> {
        let sp = simtrace::span(
            Layer::Store,
            if overwrite {
                "blob.put"
            } else {
                "blob.put_new"
            },
            || format!("{container}/{name}"),
        );
        if sp.is_recording() {
            sp.attr("bytes", format!("{size:.0}"));
        }
        let res = self.put_traced(&sp, container, name, size, overwrite).await;
        trace_outcome(&sp, &res);
        res
    }

    async fn put_traced(
        &self,
        sp: &simtrace::Span,
        container: &str,
        name: &str,
        size: f64,
        overwrite: bool,
    ) -> Result<DownloadStats> {
        let svc = &self.svc;
        let op = async {
            // Data-path ops pass the front door; metadata ops
            // (exists/list/delete) are cheap enough to stay ungated.
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let fe = sp.child("frontend", || "request".into());
            svc.request_overhead().await;
            fe.end();
            if !overwrite && svc.lookup(container, name).is_some() {
                return Err(StorageError::AlreadyExists);
            }
            let started = svc.sim.now();
            let path = [self.egress, svc.links.ul_frontend, svc.links.ingest];
            let st = sp.child("stream", || "replica_ingest".into());
            let stats = svc.net.transfer(&path, size, f64::INFINITY).await;
            st.end();
            // Commit after the data is durable on all three replicas.
            let cm = sp.child("partition.commit", || "replica_commit".into());
            svc.request_overhead().await;
            cm.end();
            if !overwrite && svc.lookup(container, name).is_some() {
                // Raced with another writer while uploading.
                return Err(StorageError::AlreadyExists);
            }
            svc.seed(container, name, size);
            svc.puts.set(svc.puts.get() + 1);
            let _ = self.client_id;
            Ok(DownloadStats {
                bytes: stats.bytes,
                elapsed: svc.sim.now() - started,
            })
        };
        svc.op_policy()
            .run_once(
                &svc.sim,
                || svc.put_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await
    }

    /// Metadata-only existence probe (no payload movement).
    pub async fn exists(&self, container: &str, name: &str) -> Result<bool> {
        let svc = &self.svc;
        let op = async {
            crate::injected_frontend_fault(&svc.sim).await?;
            svc.request_overhead().await;
            Ok(svc.lookup(container, name).is_some())
        };
        svc.op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await
    }

    /// Metadata of a blob without downloading it (HEAD).
    pub async fn get_metadata(&self, container: &str, name: &str) -> Result<BlobMeta> {
        let svc = &self.svc;
        let op = async {
            crate::injected_frontend_fault(&svc.sim).await?;
            svc.request_overhead().await;
            svc.lookup(container, name).ok_or(StorageError::NotFound)
        };
        svc.op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await
    }

    /// List blobs in a container, optionally under a name prefix, capped
    /// at the API's 5000-result page. Results are name-ordered.
    pub async fn list(
        &self,
        container: &str,
        prefix: &str,
        limit: usize,
    ) -> Result<Vec<(String, BlobMeta)>> {
        let sp = simtrace::span(Layer::Store, "blob.list", || {
            format!("{container}/{prefix}*")
        });
        let svc = &self.svc;
        let limit = limit.clamp(1, 5000);
        let op = async {
            crate::injected_frontend_fault(&svc.sim).await?;
            svc.request_overhead().await;
            let mut out: Vec<(String, BlobMeta)> = svc
                .state
                .borrow()
                .containers
                .get(container)
                .map(|c| {
                    c.iter()
                        .filter(|(n, _)| n.starts_with(prefix))
                        .map(|(n, m)| (n.clone(), m.clone()))
                        .collect()
                })
                .unwrap_or_default();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out.truncate(limit);
            // Per-page enumeration cost (the listing walks the index).
            let extra = out.len() as f64 * 2.0e-5;
            svc.sim.delay(SimDuration::from_secs_f64(extra)).await;
            Ok(out)
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        if sp.is_recording() {
            if let Ok(out) = &res {
                sp.attr("hits", out.len());
            }
        }
        trace_outcome(&sp, &res);
        res
    }

    /// Delete a blob (metadata op).
    pub async fn delete(&self, container: &str, name: &str) -> Result<()> {
        let sp = simtrace::span(Layer::Store, "blob.delete", || {
            format!("{container}/{name}")
        });
        let svc = &self.svc;
        let op = async {
            crate::injected_frontend_fault(&svc.sim).await?;
            svc.request_overhead().await;
            let mut st = svc.state.borrow_mut();
            match st
                .containers
                .get_mut(container)
                .and_then(|c| c.remove(name))
            {
                Some(_) => Ok(()),
                None => Err(StorageError::NotFound),
            }
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::{StampConfig, StorageStamp};

    fn setup(seed: u64) -> (Sim, Rc<StorageStamp>) {
        let sim = Sim::new(seed);
        let stamp = StorageStamp::standalone(&sim, StampConfig::default());
        (sim, stamp)
    }

    #[test]
    fn put_then_get_roundtrip() {
        for (blobs, bytes) in [(1, 1.0e6), (100, 1.0e5)] {
            let (sim, stamp) = setup(1);
            let c = stamp.attach_small_client();
            let h = sim.spawn(async move {
                let mut downloads = Vec::new();
                for i in 0..blobs {
                    let name = format!("b{i}");
                    c.blob.put("data", &name, bytes).await.unwrap();
                    downloads.push(c.blob.get("data", &name).await.unwrap());
                }
                downloads
            });
            sim.run();
            let downloads = h.try_take().unwrap();
            assert_eq!(downloads.len(), blobs);
            for dl in downloads {
                assert_eq!(dl.bytes, bytes);
                assert!(dl.elapsed > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn get_missing_blob_is_not_found() {
        let (sim, stamp) = setup(2);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move { c.blob.get("data", "absent").await });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::NotFound);
    }

    #[test]
    fn put_new_conflicts_on_existing() {
        let (sim, stamp) = setup(3);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.blob.put_new("data", "x", 100.0).await.unwrap();
            c.blob.put_new("data", "x", 100.0).await
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap().unwrap_err(),
            StorageError::AlreadyExists
        );
    }

    #[test]
    fn single_client_download_near_13_mbps() {
        // Fig 1 anchor: one small-instance client downloads at ≈ 13 MB/s
        // (its per-VM storage allocation).
        let (sim, stamp) = setup(4);
        stamp.blob_service().seed("bench", "gig", 1.0e9);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move { c.blob.get("bench", "gig").await.unwrap() });
        sim.run();
        let rate = h.try_take().unwrap().rate_bps() / 1.0e6;
        assert!((11.0..13.2).contains(&rate), "rate={rate} MB/s");
    }

    #[test]
    fn thirty_two_clients_halve_per_client_bandwidth() {
        // Fig 1 anchor: "The bandwidth for 32 concurrent clients is half
        // of the bandwidth that a single client achieves."
        let (sim, stamp) = setup(5);
        stamp.blob_service().seed("bench", "gig", 200.0e6);
        let rates: Rc<RefCell<Vec<f64>>> = Rc::default();
        for _ in 0..32 {
            let c = stamp.attach_small_client();
            let r = rates.clone();
            sim.spawn(async move {
                let dl = c.blob.get("bench", "gig").await.unwrap();
                r.borrow_mut().push(dl.rate_bps() / 1.0e6);
            });
        }
        sim.run();
        let rates = rates.borrow();
        let mean: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!((5.2..7.8).contains(&mean), "mean per-client={mean} MB/s");
    }

    #[test]
    fn upload_rate_alone() {
        let (sim, stamp) = setup(7);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move { c.blob.put("up", "x", 50.0e6).await.unwrap() });
        sim.run();
        let stats = h.try_take().unwrap();
        let rate = stats.bytes / stats.elapsed.as_secs_f64() / 1.0e6;
        // "similar curve shape to the download but at about half the
        // bandwidth": single uploader ≈ 5–7 MB/s.
        assert!((4.5..7.5).contains(&rate), "rate={rate} MB/s");
    }

    #[test]
    fn exists_and_delete() {
        let (sim, stamp) = setup(8);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            assert!(!c.blob.exists("d", "x").await.unwrap());
            c.blob.put("d", "x", 10.0).await.unwrap();
            assert!(c.blob.exists("d", "x").await.unwrap());
            c.blob.delete("d", "x").await.unwrap();
            assert!(!c.blob.exists("d", "x").await.unwrap());
            c.blob.delete("d", "x").await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::NotFound);
    }

    #[test]
    fn metadata_and_listing() {
        let (sim, stamp) = setup(10);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            for (name, size) in [("a/1", 100.0), ("a/2", 200.0), ("b/1", 300.0)] {
                c.blob.put("d", name, size).await.unwrap();
            }
            let meta = c.blob.get_metadata("d", "a/2").await.unwrap();
            let under_a = c.blob.list("d", "a/", 100).await.unwrap();
            let all = c.blob.list("d", "", 100).await.unwrap();
            let page = c.blob.list("d", "", 2).await.unwrap();
            let missing = c.blob.get_metadata("d", "zzz").await;
            (
                meta.size,
                under_a.len(),
                all.len(),
                page.len(),
                missing.is_err(),
            )
        });
        sim.run();
        let (size, under_a, all, page, missing) = h.try_take().unwrap();
        assert_eq!(size, 200.0);
        assert_eq!(under_a, 2);
        assert_eq!(all, 3);
        assert_eq!(page, 2);
        assert!(missing);
    }

    #[test]
    fn listing_is_name_ordered() {
        let (sim, stamp) = setup(11);
        for name in ["zeta", "alpha", "mid"] {
            stamp.blob_service().seed("d", name, 1.0);
        }
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move { c.blob.list("d", "", 10).await.unwrap() });
        sim.run();
        let names: Vec<String> = h.try_take().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn fault_injection_produces_failures_at_scale() {
        let sim = Sim::new(9);
        let mut cfg = StampConfig {
            faults: crate::stamp::FaultProfile::production(),
            ..StampConfig::default()
        };
        // Crank rates so a small run must observe failures.
        cfg.faults.corrupt_read_p = 0.2;
        cfg.faults.connection_fail_p = 0.1;
        let stamp = StorageStamp::standalone(&sim, cfg);
        stamp.blob_service().seed("d", "x", 1000.0);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            let mut errs = 0;
            for _ in 0..200 {
                if c.blob.get("d", "x").await.is_err() {
                    errs += 1;
                }
            }
            errs
        });
        sim.run();
        let errs: i32 = h.try_take().unwrap();
        assert!(errs > 20, "expected many injected failures, got {errs}");
    }

    use std::cell::RefCell;
}
