//! The table service (paper §3.2, Fig 2).
//!
//! Schemaless entities addressed by (PartitionKey, RowKey), stored in
//! per-partition ordered maps — the only indexes Azure tables have
//! ("all tables are indexed on the PartitionKey and RowKey ... creating
//! an index on any other properties cannot be specified", §6.1).
//!
//! Concurrency behaviour, per the two mechanisms in [`crate::station`]:
//! * Insert/Query ride a load-dependent station (per-client decline,
//!   aggregate still rising at 192 clients);
//! * Update commits through a **per-entity** latch (every client updates
//!   the same entity in the paper's test ⇒ aggregate peaks at ~8);
//! * Delete commits through the **partition index** latch (peaks ~128);
//! * entity size scales payload and latch costs, so 64 kB inserts at
//!   128–192 clients overload the latch queue ⇒ ServerBusy ⇒ SDK retries
//!   ⇒ the timeout failures the paper reports;
//! * property-filter queries scan the whole partition (~28 s on the
//!   paper's 220 k-entity partition) and straddle the client timeout.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use simcore::prelude::*;

use simfault::{Jitter, RetryPolicy};
use simtrace::Layer;

use crate::calib;
use crate::error::{Result, StorageError};
use crate::stamp::StampConfig;
use crate::station::{ContendedLatch, LoadedStation};
use crate::trace_outcome;

/// A property value (the paper's entities use {int, int, String, String}).
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// 32-bit integer property.
    I32(i32),
    /// 64-bit integer property.
    I64(i64),
    /// Floating-point property.
    F64(f64),
    /// Boolean property.
    Bool(bool),
    /// String property; the byte length is what costs storage/transfer.
    Str(String),
    /// Opaque padding of this many bytes: only its size exists, like a
    /// blob payload (bulk filler whose content nothing reads).
    Padding(usize),
}

impl PropValue {
    /// Approximate wire size in bytes.
    pub fn size(&self) -> f64 {
        match self {
            PropValue::I32(_) => 4.0,
            PropValue::I64(_) | PropValue::F64(_) => 8.0,
            PropValue::Bool(_) => 1.0,
            PropValue::Str(s) => s.len() as f64,
            PropValue::Padding(n) => *n as f64,
        }
    }
}

/// One table entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Partition key (unit of locality and indexing).
    pub partition_key: String,
    /// Row key (unique within the partition).
    pub row_key: String,
    /// Named properties.
    pub properties: Vec<(String, PropValue)>,
}

impl Entity {
    /// Entity with no properties.
    pub fn new(pk: impl Into<String>, rk: impl Into<String>) -> Self {
        Entity {
            partition_key: pk.into(),
            row_key: rk.into(),
            properties: Vec::new(),
        }
    }

    /// Builder-style property append.
    pub fn with(mut self, name: impl Into<String>, value: PropValue) -> Self {
        self.properties.push((name.into(), value));
        self
    }

    /// The paper's benchmark entity: `{int, int, String, String}` where
    /// the final string pads the entity to `target_kb` kilobytes.
    pub fn benchmark(pk: &str, rk: &str, target_kb: usize) -> Self {
        let pad = (target_kb as f64 * calib::KB) as usize;
        Entity::new(pk, rk)
            .with("a", PropValue::I32(1))
            .with("b", PropValue::I32(2))
            .with("name", PropValue::Str("entity".into()))
            .with("payload", PropValue::Padding(pad.saturating_sub(30)))
    }

    /// Look up a property by name.
    pub fn get(&self, name: &str) -> Option<&PropValue> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Approximate wire size in bytes (keys + properties).
    pub fn size(&self) -> f64 {
        let props: f64 = self
            .properties
            .iter()
            .map(|(n, v)| n.len() as f64 + v.size())
            .sum();
        self.partition_key.len() as f64 + self.row_key.len() as f64 + props
    }

    /// Size in kB, the unit the calibration uses.
    pub fn size_kb(&self) -> f64 {
        self.size() / calib::KB
    }
}

type Partition = BTreeMap<String, Entity>;

#[derive(Default)]
struct TableData {
    partitions: BTreeMap<String, Partition>,
}

struct Latches {
    // Per (table, partition): the partition index latch (insert/delete).
    insert: HashMap<(String, String), Rc<ContendedLatch>>,
    delete: HashMap<(String, String), Rc<ContendedLatch>>,
    // Per (table, partition, row): the entity write latch (update).
    update: HashMap<(String, String, String), Rc<ContendedLatch>>,
}

/// Server-side table service.
pub struct TableService {
    sim: Sim,
    cfg: StampConfig,
    tables: RefCell<HashMap<String, TableData>>,
    latches: RefCell<Latches>,
    query_station: LoadedStation,
    insert_station: LoadedStation,
    update_station: LoadedStation,
    delete_station: LoadedStation,
    rng: RefCell<SimRng>,
    ops: Cell<u64>,
    door: Option<Rc<crate::admit::FrontDoor>>,
}

impl TableService {
    pub(crate) fn new(sim: &Sim, cfg: &StampConfig) -> Rc<Self> {
        let j = cfg.jitter_sigma;
        Rc::new(TableService {
            sim: sim.clone(),
            cfg: cfg.clone(),
            tables: RefCell::new(HashMap::new()),
            latches: RefCell::new(Latches {
                insert: HashMap::new(),
                delete: HashMap::new(),
                update: HashMap::new(),
            }),
            query_station: LoadedStation::new(
                sim,
                calib::TABLE_QUERY_BASE_S,
                calib::TABLE_QUERY_LOAD_S,
                j,
            )
            .with_capacity(cfg.capacity.clone()),
            insert_station: LoadedStation::new(
                sim,
                calib::TABLE_INSERT_BASE_S,
                calib::TABLE_INSERT_LOAD_S,
                j,
            )
            .with_capacity(cfg.capacity.clone()),
            update_station: LoadedStation::new(sim, calib::TABLE_UPDATE_BASE_S, 0.0, j)
                .with_capacity(cfg.capacity.clone()),
            delete_station: LoadedStation::new(
                sim,
                calib::TABLE_DELETE_BASE_S,
                calib::TABLE_DELETE_LOAD_S,
                j,
            )
            .with_capacity(cfg.capacity.clone()),
            rng: RefCell::new(sim.rng(&cfg.scoped("table.service"))),
            ops: Cell::new(0),
            door: crate::admit::FrontDoor::build(sim, &cfg.admission),
        })
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// The service's admission gate, when one is configured.
    pub fn front_door(&self) -> Option<&Rc<crate::admit::FrontDoor>> {
        self.door.as_ref()
    }

    /// Total `ContendedLatch` sheds across every partition/entity latch.
    pub fn latch_shed_total(&self) -> u64 {
        let latches = self.latches.borrow();
        latches
            .insert
            .values()
            .chain(latches.delete.values())
            .chain(latches.update.values())
            .map(|l| l.shed_total())
            .sum()
    }

    /// Front-door admission check (no-op `Ok(None)` when admission is
    /// off). Runs synchronously at op entry, before any await; SDK
    /// retries re-enter it per attempt.
    fn admit(&self) -> Result<Option<crate::admit::AdmitPermit>> {
        match &self.door {
            Some(d) => d.admit().map(Some),
            None => Ok(None),
        }
    }

    /// Entities in a partition (statistic / test fixture support).
    pub fn partition_len(&self, table: &str, pk: &str) -> usize {
        self.tables
            .borrow()
            .get(table)
            .and_then(|t| t.partitions.get(pk))
            .map_or(0, |p| p.len())
    }

    /// Directly seed an entity without timing (fixtures: the paper
    /// pre-populates ~220 k entities before the query tests).
    pub fn seed(&self, table: &str, entity: Entity) {
        self.tables
            .borrow_mut()
            .entry(table.to_string())
            .or_default()
            .partitions
            .entry(entity.partition_key.clone())
            .or_default()
            .insert(entity.row_key.clone(), entity);
    }

    fn insert_latch(&self, table: &str, pk: &str) -> Rc<ContendedLatch> {
        let key = (table.to_string(), pk.to_string());
        Rc::clone(
            self.latches
                .borrow_mut()
                .insert
                .entry(key)
                .or_insert_with(|| {
                    Rc::new(
                        ContendedLatch::new(
                            &self.sim,
                            calib::TABLE_INSERT_HOLD_S,
                            f64::INFINITY,
                            self.cfg.jitter_sigma,
                            calib::TABLE_BUSY_QUEUE_LIMIT,
                        )
                        .with_capacity(self.cfg.capacity.clone()),
                    )
                }),
        )
    }

    fn delete_latch(&self, table: &str, pk: &str) -> Rc<ContendedLatch> {
        let key = (table.to_string(), pk.to_string());
        Rc::clone(
            self.latches
                .borrow_mut()
                .delete
                .entry(key)
                .or_insert_with(|| {
                    Rc::new(
                        ContendedLatch::new(
                            &self.sim,
                            calib::TABLE_DELETE_HOLD_S,
                            calib::TABLE_DELETE_HOLD_NSCALE,
                            self.cfg.jitter_sigma,
                            calib::TABLE_BUSY_QUEUE_LIMIT,
                        )
                        .with_capacity(self.cfg.capacity.clone()),
                    )
                }),
        )
    }

    fn update_latch(&self, table: &str, pk: &str, rk: &str) -> Rc<ContendedLatch> {
        let key = (table.to_string(), pk.to_string(), rk.to_string());
        Rc::clone(
            self.latches
                .borrow_mut()
                .update
                .entry(key)
                .or_insert_with(|| {
                    Rc::new(
                        ContendedLatch::new(
                            &self.sim,
                            calib::TABLE_UPDATE_HOLD_S,
                            calib::TABLE_UPDATE_HOLD_NSCALE,
                            self.cfg.jitter_sigma,
                            calib::TABLE_BUSY_QUEUE_LIMIT,
                        )
                        .with_capacity(self.cfg.capacity.clone()),
                    )
                }),
        )
    }

    fn bump(&self) {
        self.ops.set(self.ops.get() + 1);
    }

    fn fault(&self, p: f64) -> bool {
        self.cfg.faults.enabled && self.rng.borrow_mut().chance(p)
    }

    /// Connection-level fault draw, in `RetryPolicy` precheck form.
    fn connection_precheck(&self) -> Option<StorageError> {
        if self.fault(self.cfg.faults.connection_fail_p) {
            Some(StorageError::ConnectionFailed)
        } else {
            None
        }
    }
}

/// A property filter for non-indexed queries.
pub type Filter = Rc<dyn Fn(&Entity) -> bool>;

/// Per-VM table client with the 2009 SDK's retry behaviour: ServerBusy is
/// retried with exponential backoff; every operation carries the
/// configured client timeout.
pub struct TableClient {
    svc: Rc<TableService>,
    rng: RefCell<SimRng>,
}

impl TableClient {
    pub(crate) fn new(svc: &Rc<TableService>, client_id: u64) -> Self {
        TableClient {
            svc: Rc::clone(svc),
            rng: RefCell::new(
                svc.sim
                    .rng(&svc.cfg.scoped(&format!("table.client.{client_id}"))),
            ),
        }
    }

    /// The 2009 SDK's retry behaviour as a [`RetryPolicy`]: ServerBusy
    /// retried with jittered exponential backoff; every attempt carries
    /// the configured client timeout, and a client-side timeout is
    /// surfaced directly ("timeout exceptions from the server").
    fn sdk_policy(&self) -> RetryPolicy {
        RetryPolicy::exponential(
            calib::CLIENT_BUSY_BACKOFF_S,
            2.0,
            calib::CLIENT_BUSY_RETRIES,
        )
        .with_timeout(self.svc.cfg.op_timeout)
        .with_jitter(Jitter::Centered)
        .with_counter("store.sdk_retries")
    }

    async fn with_sdk_semantics<F, Fut>(&self, op: F) -> Result<()>
    where
        F: Fn() -> Fut,
        Fut: std::future::Future<Output = Result<()>>,
    {
        let svc = &self.svc;
        self.sdk_policy()
            .run(
                &svc.sim,
                Some(&self.rng),
                || svc.connection_precheck(),
                |_| op(),
                |e| *e == StorageError::ServerBusy,
                || StorageError::Timeout,
            )
            .await
    }

    /// Insert a new entity; `AlreadyExists` if (pk, rk) is taken.
    pub async fn insert(&self, table: &str, entity: Entity) -> Result<()> {
        let sp = simtrace::span(Layer::Store, "table.insert", || format!("table:{table}"));
        let sp = &sp;
        let svc = Rc::clone(&self.svc);
        let table = table.to_string();
        let kb = entity.size_kb();
        let entity = RefCell::new(Some(entity));
        let res = self
            .with_sdk_semantics(|| {
                let svc = Rc::clone(&svc);
                let table = table.clone();
                let entity = entity.borrow().clone();
                async move {
                    let _admit = svc.admit()?;
                    crate::injected_frontend_fault(&svc.sim).await?;
                    let entity = entity.expect("entity consumed");
                    let mut rng = svc.rng.borrow_mut().fork("ins");
                    let fe = sp.child("frontend", || "insert_station".into());
                    svc.insert_station
                        .serve(kb * calib::TABLE_PAYLOAD_S_PER_KB, &mut rng)
                        .await;
                    fe.end();
                    let latch = svc.insert_latch(&table, &entity.partition_key);
                    let mut hold_factor = (kb / 4.0).max(0.25).powf(calib::TABLE_SIZE_HOLD_EXP);
                    if kb > calib::TABLE_LARGE_ENTITY_KB {
                        // Multi-extent write path: a large serialized commit.
                        hold_factor += calib::TABLE_LARGE_COMMIT_S / calib::TABLE_INSERT_HOLD_S;
                    }
                    crate::injected_commit_stall(&svc.sim).await;
                    let cm = sp.child("partition.commit", || "partition_latch".into());
                    latch.commit(hold_factor, &mut rng).await?;
                    cm.end();
                    // Key check under the latch (post-commit visibility).
                    {
                        let mut tables = svc.tables.borrow_mut();
                        let part = tables
                            .entry(table.clone())
                            .or_default()
                            .partitions
                            .entry(entity.partition_key.clone())
                            .or_default();
                        if part.contains_key(&entity.row_key) {
                            return Err(StorageError::AlreadyExists);
                        }
                        part.insert(entity.row_key.clone(), entity);
                    }
                    svc.bump();
                    Ok(())
                }
            })
            .await;
        trace_outcome(sp, &res);
        res
    }

    /// Point query by partition + row key — "the fastest query option
    /// because they are used for indexing the table" (§3.2).
    pub async fn query_point(&self, table: &str, pk: &str, rk: &str) -> Result<Entity> {
        let sp = simtrace::span(Layer::Store, "table.query_point", || {
            format!("table:{table}")
        });
        let svc = &self.svc;
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = svc.rng.borrow_mut().fork("q");
            let fe = sp.child("frontend", || "query_station".into());
            svc.query_station.serve(0.0, &mut rng).await;
            fe.end();
            let found = svc
                .tables
                .borrow()
                .get(table)
                .and_then(|t| t.partitions.get(pk))
                .and_then(|p| p.get(rk))
                .cloned();
            svc.bump();
            found.ok_or(StorageError::NotFound)
        };
        let res = RetryPolicy::none()
            .with_timeout(svc.cfg.op_timeout)
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

    /// Key-range query: entities of one partition with row keys in
    /// `[from_rk, to_rk)`, capped at the API's 1000-entity page. Unlike
    /// property filters this rides the (PartitionKey, RowKey) index, so
    /// its cost scales with the *result* size, not the partition size —
    /// the §6.1 "access by keys only" recommendation in API form.
    pub async fn query_range(
        &self,
        table: &str,
        pk: &str,
        from_rk: &str,
        to_rk: &str,
        limit: usize,
    ) -> Result<Vec<Entity>> {
        let sp = simtrace::span(Layer::Store, "table.query_range", || {
            format!("table:{table}")
        });
        let svc = &self.svc;
        let limit = limit.clamp(1, 1000);
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = svc.rng.borrow_mut().fork("range");
            // Index seek plus a small per-returned-entity cost.
            let hits: Vec<Entity> = svc
                .tables
                .borrow()
                .get(table)
                .and_then(|t| t.partitions.get(pk))
                .map(|p| {
                    p.range(from_rk.to_string()..to_rk.to_string())
                        .take(limit)
                        .map(|(_, e)| e.clone())
                        .collect()
                })
                .unwrap_or_default();
            let extra = hits.len() as f64 * 0.00002
                + hits.iter().map(|e| e.size_kb()).sum::<f64>() * calib::TABLE_PAYLOAD_S_PER_KB;
            let fe = sp.child("frontend", || "query_station".into());
            svc.query_station.serve(extra, &mut rng).await;
            fe.end();
            svc.bump();
            Ok(hits)
        };
        let res = RetryPolicy::none()
            .with_timeout(svc.cfg.op_timeout)
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

    /// Property-filter query: scans the whole partition because only the
    /// keys are indexed. On the paper's 220 k-entity partition this
    /// straddles the client timeout (§6.1).
    pub async fn query_filter(
        &self,
        table: &str,
        pk: &str,
        filter: impl Fn(&Entity) -> bool,
    ) -> Result<Vec<Entity>> {
        let sp = simtrace::span(Layer::Store, "table.query_filter", || {
            format!("table:{table}")
        });
        let svc = &self.svc;
        let n = svc.partition_len(table, pk);
        if sp.is_recording() {
            sp.attr("partition_len", n);
        }
        let scan_cost = n as f64 * calib::TABLE_SCAN_S_PER_ENTITY;
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = svc.rng.borrow_mut().fork("scan");
            let fe = sp.child("frontend", || "query_station".into());
            svc.query_station.serve(scan_cost, &mut rng).await;
            fe.end();
            let hits = svc
                .tables
                .borrow()
                .get(table)
                .and_then(|t| t.partitions.get(pk))
                .map(|p| p.values().filter(|e| filter(e)).cloned().collect())
                .unwrap_or_default();
            svc.bump();
            Ok(hits)
        };
        let res = RetryPolicy::none()
            .with_timeout(svc.cfg.op_timeout)
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

    /// Unconditional update (last-writer-wins; "it does not enforce
    /// atomicity of each update request", §3.2). `NotFound` if absent.
    pub async fn update(&self, table: &str, entity: Entity) -> Result<()> {
        let sp = simtrace::span(Layer::Store, "table.update", || format!("table:{table}"));
        let sp = &sp;
        let svc = Rc::clone(&self.svc);
        let table = table.to_string();
        let kb = entity.size_kb();
        if sp.is_recording() {
            sp.attr("kb", format!("{kb:.2}"));
        }
        let entity = RefCell::new(Some(entity));
        let res = self
            .with_sdk_semantics(|| {
                let svc = Rc::clone(&svc);
                let table = table.clone();
                let entity = entity.borrow().clone();
                async move {
                    let _admit = svc.admit()?;
                    crate::injected_frontend_fault(&svc.sim).await?;
                    let entity = entity.expect("entity consumed");
                    let mut rng = svc.rng.borrow_mut().fork("upd");
                    let fe = sp.child("frontend", || "update_station".into());
                    svc.update_station
                        .serve(kb * calib::TABLE_PAYLOAD_S_PER_KB, &mut rng)
                        .await;
                    fe.end();
                    let latch = svc.update_latch(&table, &entity.partition_key, &entity.row_key);
                    let hold_factor = (kb / 4.0).max(0.25);
                    crate::injected_commit_stall(&svc.sim).await;
                    let cm = sp.child("partition.commit", || "entity_latch".into());
                    latch.commit(hold_factor, &mut rng).await?;
                    cm.end();
                    {
                        let mut tables = svc.tables.borrow_mut();
                        let slot = tables
                            .get_mut(&table)
                            .and_then(|t| t.partitions.get_mut(&entity.partition_key))
                            .and_then(|p| p.get_mut(&entity.row_key));
                        match slot {
                            Some(e) => *e = entity,
                            None => return Err(StorageError::NotFound),
                        }
                    }
                    svc.bump();
                    Ok(())
                }
            })
            .await;
        trace_outcome(sp, &res);
        res
    }

    /// Delete by key. `NotFound` if absent.
    pub async fn delete(&self, table: &str, pk: &str, rk: &str) -> Result<()> {
        let sp = simtrace::span(Layer::Store, "table.delete", || format!("table:{table}"));
        let sp = &sp;
        let svc = Rc::clone(&self.svc);
        let (table, pk, rk) = (table.to_string(), pk.to_string(), rk.to_string());
        let res = self
            .with_sdk_semantics(|| {
                let svc = Rc::clone(&svc);
                let (table, pk, rk) = (table.clone(), pk.clone(), rk.clone());
                async move {
                    let _admit = svc.admit()?;
                    crate::injected_frontend_fault(&svc.sim).await?;
                    let mut rng = svc.rng.borrow_mut().fork("del");
                    let fe = sp.child("frontend", || "delete_station".into());
                    svc.delete_station.serve(0.0, &mut rng).await;
                    fe.end();
                    let latch = svc.delete_latch(&table, &pk);
                    crate::injected_commit_stall(&svc.sim).await;
                    let cm = sp.child("partition.commit", || "partition_latch".into());
                    latch.commit(1.0, &mut rng).await?;
                    cm.end();
                    let removed = svc
                        .tables
                        .borrow_mut()
                        .get_mut(&table)
                        .and_then(|t| t.partitions.get_mut(&pk))
                        .and_then(|p| p.remove(&rk));
                    svc.bump();
                    match removed {
                        Some(_) => Ok(()),
                        None => Err(StorageError::NotFound),
                    }
                }
            })
            .await;
        trace_outcome(sp, &res);
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
    fn entity_size_accounts_keys_and_props() {
        let e = Entity::benchmark("part", "row1", 4);
        let kb = e.size_kb();
        assert!((3.8..4.2).contains(&kb), "kb={kb}");
        assert!(e.get("a").is_some());
        assert!(e.get("missing").is_none());
    }

    #[test]
    fn size_only_padding_costs_what_its_string_did() {
        for kb in [0, 1, 4, 64] {
            let e = Entity::benchmark("part", "row1", kb);
            let Some(PropValue::Padding(n)) = e.get("payload") else {
                panic!("benchmark payload is size-only padding");
            };
            let spelled = Entity::new("part", "row1")
                .with("a", PropValue::I32(1))
                .with("b", PropValue::I32(2))
                .with("name", PropValue::Str("entity".into()))
                .with("payload", PropValue::Str("x".repeat(*n)));
            assert_eq!(e.size().to_bits(), spelled.size().to_bits(), "{kb} kB");
        }
    }

    #[test]
    fn insert_query_roundtrip() {
        for (rows, kb) in [(1, 1), (200, 4)] {
            let (sim, stamp) = setup(1);
            let c = stamp.attach_small_client();
            let h = sim.spawn(async move {
                let entities: Vec<Entity> = (0..rows)
                    .map(|i| Entity::benchmark("p", &format!("r{i}"), kb))
                    .collect();
                for e in &entities {
                    c.table.insert("t", e.clone()).await.unwrap();
                }
                for e in &entities {
                    let back = c.table.query_point("t", "p", &e.row_key).await.unwrap();
                    assert_eq!(&back, e);
                }
                c.table.query_point("t", "p", "absent").await
            });
            sim.run();
            assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::NotFound);
            assert_eq!(stamp.table_service().ops(), 2 * rows as u64 + 1);
        }
    }

    #[test]
    fn duplicate_insert_conflicts() {
        let (sim, stamp) = setup(2);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.table
                .insert("t", Entity::benchmark("p", "r", 1))
                .await
                .unwrap();
            c.table.insert("t", Entity::benchmark("p", "r", 1)).await
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap().unwrap_err(),
            StorageError::AlreadyExists
        );
    }

    #[test]
    fn update_replaces_and_delete_removes() {
        let (sim, stamp) = setup(3);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.table
                .insert("t", Entity::benchmark("p", "r", 1))
                .await
                .unwrap();
            let new = Entity::new("p", "r").with("v", PropValue::I64(9));
            c.table.update("t", new.clone()).await.unwrap();
            let got = c.table.query_point("t", "p", "r").await.unwrap();
            assert_eq!(got.get("v"), Some(&PropValue::I64(9)));
            c.table.delete("t", "p", "r").await.unwrap();
            c.table.delete("t", "p", "r").await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::NotFound);
    }

    #[test]
    fn update_of_missing_entity_is_not_found() {
        let (sim, stamp) = setup(4);
        let c = stamp.attach_small_client();
        let h =
            sim.spawn(async move { c.table.update("t", Entity::benchmark("p", "nope", 1)).await });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::NotFound);
    }

    #[test]
    fn filter_query_finds_matching_entities_on_small_partition() {
        let (sim, stamp) = setup(5);
        for i in 0..50 {
            stamp.table_service().seed(
                "t",
                Entity::new("p", format!("r{i:03}")).with("even", PropValue::Bool(i % 2 == 0)),
            );
        }
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.table
                .query_filter("t", "p", |e| e.get("even") == Some(&PropValue::Bool(true)))
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap().len(), 25);
    }

    #[test]
    fn filter_query_on_huge_partition_times_out() {
        // §6.1: property-filter scans on the ~220 k-entity partition
        // time out (entity count is what matters; seed a sized count).
        let (sim, stamp) = setup(6);
        for i in 0..240_000 {
            stamp
                .table_service()
                .seed("t", Entity::new("p", format!("r{i:07}")));
        }
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move { c.table.query_filter("t", "p", |_| true).await });
        sim.run();
        assert_eq!(h.try_take().unwrap().unwrap_err(), StorageError::Timeout);
    }

    #[test]
    fn single_client_query_rate_is_tens_per_second() {
        let (sim, stamp) = setup(7);
        stamp
            .table_service()
            .seed("t", Entity::benchmark("p", "r", 4));
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let n = 200;
            let t0 = s.now();
            for _ in 0..n {
                c.table.query_point("t", "p", "r").await.unwrap();
            }
            n as f64 / (s.now() - t0).as_secs_f64()
        });
        sim.run();
        let rate = h.try_take().unwrap();
        assert!((40.0..80.0).contains(&rate), "query rate={rate}/s");
    }

    #[test]
    fn range_query_rides_the_index() {
        let (sim, stamp) = setup(9);
        // A big partition: a property filter here would time out, but a
        // range over the key index stays fast.
        for i in 0..120_000 {
            stamp
                .table_service()
                .seed("t", Entity::new("p", format!("r{i:06}")));
        }
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let t0 = s.now();
            let hits = c
                .table
                .query_range("t", "p", "r000100", "r000150", 1000)
                .await
                .unwrap();
            (hits.len(), (s.now() - t0).as_secs_f64())
        });
        sim.run();
        let (n, secs) = h.try_take().unwrap();
        assert_eq!(n, 50);
        assert!(secs < 0.5, "range query took {secs}s on a huge partition");
    }

    #[test]
    fn range_query_respects_page_limit_and_bounds() {
        let (sim, stamp) = setup(10);
        for i in 0..30 {
            stamp
                .table_service()
                .seed("t", Entity::new("p", format!("r{i:02}")));
        }
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            let page = c
                .table
                .query_range("t", "p", "r00", "r99", 10)
                .await
                .unwrap();
            let empty = c.table.query_range("t", "p", "x", "y", 10).await.unwrap();
            let missing = c
                .table
                .query_range("t", "nope", "a", "z", 10)
                .await
                .unwrap();
            (page, empty.len(), missing.len())
        });
        sim.run();
        let (page, empty, missing) = h.try_take().unwrap();
        assert_eq!(page.len(), 10);
        assert_eq!(page[0].row_key, "r00");
        assert_eq!(page[9].row_key, "r09");
        assert_eq!((empty, missing), (0, 0));
    }

    #[test]
    fn concurrent_updates_serialize_on_entity_latch() {
        let (sim, stamp) = setup(8);
        stamp
            .table_service()
            .seed("t", Entity::benchmark("p", "shared", 4));
        let done = Rc::new(Cell::new(0u32));
        for i in 0..16 {
            let c = stamp.attach_small_client();
            let d = done.clone();
            let _ = i;
            sim.spawn(async move {
                for _ in 0..5 {
                    c.table
                        .update("t", Entity::benchmark("p", "shared", 4))
                        .await
                        .unwrap();
                }
                d.set(d.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 16);
        // 80 updates through one latch: elapsed must exceed the summed
        // minimum hold time (serialization proof).
        assert!(sim.now().as_secs_f64() > 80.0 * calib::TABLE_UPDATE_HOLD_S);
    }
}
