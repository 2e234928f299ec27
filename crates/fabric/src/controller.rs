//! The fabric controller: deployments and their lifecycle phases.
//!
//! Reproduces the §4.1 management-API behaviour: five timed phases
//! (create / run / add / suspend / delete), per-(role, size) duration
//! distributions anchored to Table 1 via the decomposition in
//! [`crate::calib`], sequential instance readiness ("Azure does not
//! serve a request for multiple VMs at the same time", observation 3),
//! a 20-core quota, the 2.6 % startup-failure rate, and the unsupported
//! extra-large Add (Table 1's "N/A").

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simcore::prelude::*;

use crate::calib;
use crate::host::{HostPool, HostPoolConfig};
use crate::loadbalancer::LoadBalancer;
use crate::types::{DeploymentStatus, FabricError, InstanceStatus, Phase, RoleType, VmSize};

/// Static span-kind name of one lifecycle phase (Table 1 columns).
fn phase_span_kind(phase: Phase) -> &'static str {
    match phase {
        Phase::Create => "phase.create",
        Phase::Run => "phase.run",
        Phase::Add => "phase.add",
        Phase::Suspend => "phase.suspend",
        Phase::Delete => "phase.delete",
    }
}

/// Controller-level configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Subscription core quota (20 for 2009 accounts).
    pub quota_cores: u32,
    /// Host pool behind the VMs.
    pub hosts: HostPoolConfig,
    /// Startup failure probability per run/add request.
    pub startup_failure_p: f64,
    /// Multiplier applied to every sampled lifecycle-phase duration
    /// (create/run/add/suspend/delete). 1.0 reproduces Table 1 as
    /// measured; the `faas` crate runs a container pool at a small
    /// fraction of it so a cold start is the same emergent lifecycle
    /// compressed to seconds. The RNG draw sequence is unchanged by
    /// the scale, so scaled and unscaled controllers consume identical
    /// stream positions.
    pub lifecycle_scale: f64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            quota_cores: calib::QUOTA_CORES,
            hosts: HostPoolConfig::default(),
            startup_failure_p: calib::STARTUP_FAILURE_P,
            lifecycle_scale: 1.0,
        }
    }
}

/// What the caller asks the fabric to deploy.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentSpec {
    /// Web or worker.
    pub role: RoleType,
    /// VM size.
    pub size: VmSize,
    /// Initial instance count.
    pub instances: usize,
    /// Application package size in MB (drives create time).
    pub package_mb: f64,
}

impl DeploymentSpec {
    /// The paper's test deployment for a given role and size: instance
    /// count by size (4/2/1/1) and the 5 MB reference package.
    pub fn paper_test(role: RoleType, size: VmSize) -> Self {
        DeploymentSpec {
            role,
            size,
            instances: size.test_instances(),
            package_mb: calib::REFERENCE_PACKAGE_MB,
        }
    }
}

/// Timing outcome of one lifecycle phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Which phase ran.
    pub phase: Phase,
    /// Request-to-completion wall time.
    pub duration: SimDuration,
    /// Readiness offsets of individual instances (run/add only),
    /// relative to the phase start, in request order.
    pub instance_ready_offsets: Vec<SimDuration>,
}

/// One VM instance.
#[derive(Debug)]
pub struct Instance {
    /// Index within the deployment.
    pub index: usize,
    /// Physical host carrying the VM.
    pub host: usize,
    /// Lifecycle status.
    pub status: Cell<InstanceStatus>,
}

/// The fabric controller.
pub struct FabricController {
    sim: Sim,
    cfg: FabricConfig,
    hosts: Rc<HostPool>,
    used_cores: Cell<u32>,
    deploy_seq: Cell<u64>,
    runs_ok: Cell<u64>,
    runs_failed: Cell<u64>,
}

impl FabricController {
    /// Create a controller (and its host pool) on `sim`.
    pub fn new(sim: &Sim, cfg: FabricConfig) -> Rc<Self> {
        let hosts = HostPool::new(sim, cfg.hosts.clone());
        Rc::new(FabricController {
            sim: sim.clone(),
            cfg,
            hosts,
            used_cores: Cell::new(0),
            deploy_seq: Cell::new(0),
            runs_ok: Cell::new(0),
            runs_failed: Cell::new(0),
        })
    }

    /// The physical host pool (compute with performance variation).
    pub fn hosts(&self) -> &Rc<HostPool> {
        &self.hosts
    }

    /// Cores still available under the quota.
    pub fn quota_available(&self) -> u32 {
        self.cfg.quota_cores - self.used_cores.get()
    }

    /// Successful run/add phases so far.
    pub fn runs_ok(&self) -> u64 {
        self.runs_ok.get()
    }

    /// Failed run/add phases so far (the 2.6 %).
    pub fn runs_failed(&self) -> u64 {
        self.runs_failed.get()
    }

    /// Create a deployment: stages the package and prepares instances
    /// (Table 1 "Create"). Reserves quota for the initial instances.
    pub async fn create_deployment(
        self: &Rc<Self>,
        spec: DeploymentSpec,
    ) -> Result<Rc<Deployment>, FabricError> {
        let need = spec.instances as u32 * spec.size.cores();
        let avail = self.quota_available();
        if need > avail {
            return Err(FabricError::QuotaExceeded {
                requested: need,
                available: avail,
            });
        }
        self.used_cores.set(self.used_cores.get() + need);
        let seq = self.deploy_seq.get();
        self.deploy_seq.set(seq + 1);
        let mut rng = self.sim.rng(&format!("fabric.deploy.{seq}"));
        let sp = simtrace::span(
            simtrace::Layer::Fabric,
            phase_span_kind(Phase::Create),
            || format!("deploy{seq}"),
        );
        if sp.is_recording() {
            sp.attr("role", spec.role);
            sp.attr("size", spec.size);
            sp.attr("instances", spec.instances);
        }

        let row = calib::paper_table1(spec.role, spec.size);
        let base = row.create.avg
            + (spec.package_mb - calib::REFERENCE_PACKAGE_MB) / calib::PACKAGE_STAGE_MB_PER_S;
        let dur =
            TruncNormal::new(base, row.create.std, 5.0).sample(&mut rng) * self.cfg.lifecycle_scale;
        self.sim.delay(SimDuration::from_secs_f64(dur)).await;

        let instances = (0..spec.instances)
            .map(|index| Instance {
                index,
                host: rng.usize_below(self.hosts.len()),
                status: Cell::new(InstanceStatus::Stopped),
            })
            .collect();
        Ok(Rc::new(Deployment {
            fc: Rc::clone(self),
            spec: Cell::new(spec),
            status: Cell::new(DeploymentStatus::Created),
            instances: RefCell::new(instances),
            next_index: Cell::new(spec.instances),
            rng: RefCell::new(rng),
            create_duration: SimDuration::from_secs_f64(dur),
            lb: match spec.role {
                RoleType::Web => Some(LoadBalancer::new()),
                RoleType::Worker => None,
            },
        }))
    }
}

/// A deployed application.
pub struct Deployment {
    fc: Rc<FabricController>,
    spec: Cell<DeploymentSpec>,
    status: Cell<DeploymentStatus>,
    instances: RefCell<Vec<Instance>>,
    /// Next instance id. Ids are monotonic and never reused, so they
    /// stay unique even after scale-in / crash reaping removes
    /// instances from the middle of the vec.
    next_index: Cell<usize>,
    rng: RefCell<SimRng>,
    create_duration: SimDuration,
    /// Web roles sit behind the platform load balancer (§3).
    lb: Option<LoadBalancer>,
}

impl Deployment {
    /// The spec as currently deployed (instance count grows on add).
    pub fn spec(&self) -> DeploymentSpec {
        self.spec.get()
    }

    /// Deployment status.
    pub fn status(&self) -> DeploymentStatus {
        self.status.get()
    }

    /// How long the create phase took.
    pub fn create_duration(&self) -> SimDuration {
        self.create_duration
    }

    /// Current instance count.
    pub fn instance_count(&self) -> usize {
        self.instances.borrow().len()
    }

    /// Instances currently Ready (live serving capacity).
    pub fn ready_count(&self) -> usize {
        self.instances
            .borrow()
            .iter()
            .filter(|inst| inst.status.get() == InstanceStatus::Ready)
            .count()
    }

    /// Host assignment of instance `i`.
    pub fn host_of(&self, i: usize) -> usize {
        self.instances.borrow()[i].host
    }

    /// Status of instance `i`.
    pub fn instance_status(&self, i: usize) -> InstanceStatus {
        self.instances.borrow()[i].status.get()
    }

    /// Run nominal `work` on instance `i`'s host (slowdown-adjusted).
    pub async fn execute_on(&self, i: usize, work: SimDuration) -> SimDuration {
        let host = self.host_of(i);
        self.fc.hosts.execute(host, work).await
    }

    /// The load balancer in front of this deployment (web roles only).
    pub fn load_balancer(&self) -> Option<&LoadBalancer> {
        self.lb.as_ref()
    }

    /// Serve one external request through the load balancer: route to a
    /// ready instance, run `work` on its host, release the connection.
    /// Only valid for web roles.
    pub async fn handle_request(
        &self,
        work: SimDuration,
    ) -> Result<SimDuration, crate::loadbalancer::LbError> {
        let lb = self
            .lb
            .as_ref()
            .expect("handle_request requires a web role");
        let routed = lb.route()?;
        let elapsed = self.execute_on(routed.backend(), work).await;
        routed.finish();
        Ok(elapsed)
    }

    fn sample_failure(&self) -> bool {
        let p = self.fc.cfg.startup_failure_p;
        self.rng.borrow_mut().chance(p)
    }

    /// Start all instances (Table 1 "Run"): the first instance boots,
    /// the rest become ready with the observed per-instance stagger.
    pub async fn run(&self) -> Result<PhaseReport, FabricError> {
        match self.status.get() {
            DeploymentStatus::Created | DeploymentStatus::Suspended => {}
            _ => return Err(FabricError::InvalidState("run requires created/suspended")),
        }
        if let Some(lb) = &self.lb {
            lb.resume();
        }
        let spec = self.spec.get();
        let row = calib::paper_table1(spec.role, spec.size);
        let n = self.instance_count();
        let scale = self.fc.cfg.lifecycle_scale;
        let offsets = {
            let mut rng = self.rng.borrow_mut();
            let b1_mean = calib::run_first_boot_mean(spec.role, spec.size);
            // Keep the aggregate std close to Table 1: the staggers
            // contribute (n-1)·std_lag² of variance.
            let lag_var = (n.saturating_sub(1)) as f64 * calib::RUN_STAGGER_STD_S.powi(2);
            let b1_std = (row.run.std.powi(2) - lag_var).max(25.0).sqrt();
            let b1 = TruncNormal::new(b1_mean, b1_std, 60.0).sample(&mut rng);
            let mut offsets = Vec::with_capacity(n);
            let mut t = b1;
            for i in 0..n {
                if i > 0 {
                    t +=
                        TruncNormal::new(calib::RUN_STAGGER_MEAN_S, calib::RUN_STAGGER_STD_S, 20.0)
                            .sample(&mut rng);
                }
                offsets.push(SimDuration::from_secs_f64(t * scale));
            }
            offsets
        };
        self.start_instances(0, &offsets, Phase::Run).await
    }

    /// Start the deployment, retrying startup failures under `policy`
    /// (§4.1: 2.6 % of run/add requests fail and "one simply needs to
    /// retry the request"). Off the Table 1 measurement path, which
    /// times single attempts; applications that must come up use this.
    pub async fn run_with_retry(
        &self,
        policy: &simfault::RetryPolicy,
    ) -> Result<PhaseReport, FabricError> {
        policy
            .run(
                &self.fc.sim,
                None,
                || None,
                |_| self.run(),
                |e| matches!(e, FabricError::StartupFailure),
                || FabricError::InvalidState("lifecycle retry timed out"),
            )
            .await
    }

    /// Double the instance count (Table 1 "Add"); unsupported for
    /// extra-large (the paper's N/A) and quota-checked.
    ///
    /// On a startup failure the reserved quota and partially-started
    /// instances are left in place, exactly as the Table 1 measurement
    /// path observed them (callers suspend+delete to clean up).
    pub async fn add_instances(&self) -> Result<PhaseReport, FabricError> {
        self.add_impl(self.instance_count(), false).await
    }

    /// Add `count` instances through the same stochastic Table 1 "Add"
    /// lifecycle (first new instance at the add-first-boot delay, then
    /// per-instance exponential staggers). Unlike [`add_instances`]
    /// (the paper's doubling measurement), a startup failure rolls the
    /// batch back — instances removed, quota released — so elastic
    /// controllers can simply re-order capacity on the next tick.
    ///
    /// [`add_instances`]: Deployment::add_instances
    pub async fn add_instances_n(&self, count: usize) -> Result<PhaseReport, FabricError> {
        if count == 0 {
            return Err(FabricError::InvalidState("add of zero instances"));
        }
        self.add_impl(count, true).await
    }

    async fn add_impl(&self, added: usize, rollback: bool) -> Result<PhaseReport, FabricError> {
        if self.status.get() != DeploymentStatus::Running {
            return Err(FabricError::InvalidState("add requires running"));
        }
        let spec = self.spec.get();
        if spec.size == VmSize::ExtraLarge {
            return Err(FabricError::Unsupported("extra-large add (Table 1: N/A)"));
        }
        let need = added as u32 * spec.size.cores();
        let avail = self.fc.quota_available();
        if need > avail {
            return Err(FabricError::QuotaExceeded {
                requested: need,
                available: avail,
            });
        }
        self.fc.used_cores.set(self.fc.used_cores.get() + need);

        let first = self.instance_count();
        let first_id = self.next_index.get();
        self.next_index.set(first_id + added);
        {
            let mut rng = self.rng.borrow_mut();
            let mut instances = self.instances.borrow_mut();
            for k in 0..added {
                instances.push(Instance {
                    index: first_id + k,
                    host: rng.usize_below(self.fc.hosts.len()),
                    status: Cell::new(InstanceStatus::Stopped),
                });
            }
        }
        let scale = self.fc.cfg.lifecycle_scale;
        let offsets = {
            let mut rng = self.rng.borrow_mut();
            let b1_mean = calib::add_first_boot_mean(spec.role, spec.size)
                .expect("add supported for this size");
            let lag_mean = calib::add_stagger_mean(spec.role, spec.size).unwrap();
            let b1 = TruncNormal::new(b1_mean, row_run_std(spec), 30.0).sample(&mut rng);
            let mut offsets = Vec::with_capacity(added);
            let mut t = b1;
            for _ in 0..added {
                // Exp staggers: Table 1's Add stds are huge (355/478 s).
                t += Exp::with_mean(lag_mean)
                    .sample(&mut rng)
                    .max(calib::ADD_STAGGER_MIN_S / 2.0);
                offsets.push(SimDuration::from_secs_f64(t * scale));
            }
            offsets
        };
        let result = self.start_instances(first, &offsets, Phase::Add).await;
        match result {
            Ok(report) => {
                self.spec.set(DeploymentSpec {
                    instances: self.instance_count(),
                    ..spec
                });
                Ok(report)
            }
            Err(e) => {
                if rollback {
                    let mut instances = self.instances.borrow_mut();
                    let before = instances.len();
                    instances
                        .retain(|inst| inst.index < first_id || inst.index >= first_id + added);
                    let removed = (before - instances.len()) as u32;
                    self.fc
                        .used_cores
                        .set(self.fc.used_cores.get() - removed * spec.size.cores());
                }
                Err(e)
            }
        }
    }

    /// Scale in: remove up to `count` Ready instances, newest first,
    /// releasing their quota immediately (stopping a VM is fast and the
    /// paper's Table 1 charges nothing like the boot delay for it).
    /// Returns how many were removed. Deterministic — no RNG draws.
    pub fn remove_instances(&self, count: usize) -> usize {
        let spec = self.spec.get();
        let mut removed = 0usize;
        {
            let mut instances = self.instances.borrow_mut();
            let mut i = instances.len();
            while i > 0 && removed < count {
                i -= 1;
                if instances[i].status.get() == InstanceStatus::Ready {
                    if let Some(lb) = &self.lb {
                        lb.detach(instances[i].index);
                    }
                    instances.remove(i);
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            self.fc
                .used_cores
                .set(self.fc.used_cores.get() - removed as u32 * spec.size.cores());
            simtrace::counter("fabric.instances_live", -(removed as i64));
            self.spec.set(DeploymentSpec {
                instances: self.instance_count(),
                ..spec
            });
        }
        removed
    }

    /// Reap Ready instances whose host is currently down (speed 0 under
    /// an active `simfault` host-crash episode): the fabric notices the
    /// missed heartbeat, removes the instance and releases its quota.
    /// Returns how many were reaped. Deterministic — no RNG draws.
    pub fn reap_dead(&self) -> usize {
        let now = self.fc.sim.now();
        let spec = self.spec.get();
        let mut reaped = 0usize;
        {
            let mut instances = self.instances.borrow_mut();
            let mut i = 0;
            while i < instances.len() {
                let inst = &instances[i];
                if inst.status.get() == InstanceStatus::Ready
                    && self.fc.hosts.speed_segment(inst.host, now).0 == 0.0
                {
                    if let Some(lb) = &self.lb {
                        lb.detach(inst.index);
                    }
                    simtrace::instant(simtrace::Layer::Fabric, "instance_reaped", || {
                        format!("vm{}", inst.index)
                    });
                    instances.remove(i);
                    reaped += 1;
                } else {
                    i += 1;
                }
            }
        }
        if reaped > 0 {
            self.fc
                .used_cores
                .set(self.fc.used_cores.get() - reaped as u32 * spec.size.cores());
            simtrace::counter("fabric.instances_live", -(reaped as i64));
            self.spec.set(DeploymentSpec {
                instances: self.instance_count(),
                ..spec
            });
        }
        reaped
    }

    async fn start_instances(
        &self,
        first: usize,
        offsets: &[SimDuration],
        phase: Phase,
    ) -> Result<PhaseReport, FabricError> {
        let start = self.fc.sim.now();
        // Capture the target instances by id: concurrent scale-in /
        // crash reaping may remove *other* instances from the vec while
        // this phase sleeps, shifting positions.
        let ids: Vec<usize> = self
            .instances
            .borrow()
            .iter()
            .skip(first)
            .map(|inst| inst.index)
            .collect();
        let sp = simtrace::span(simtrace::Layer::Fabric, phase_span_kind(phase), || {
            format!("instances {}..{}", first, first + offsets.len())
        });
        // One child span per instance: provisioning request → ready.
        let mut boot_spans: Vec<Option<simtrace::Span>> = (0..offsets.len())
            .map(|k| {
                if sp.is_recording() {
                    Some(sp.child("instance.boot", || format!("vm{}", first + k)))
                } else {
                    None
                }
            })
            .collect();
        for inst in self.instances.borrow().iter().skip(first) {
            inst.status.set(InstanceStatus::Provisioning);
        }
        if self.sample_failure() {
            // The failure surfaces partway through provisioning.
            let frac = self.rng.borrow_mut().range_f64(0.2, 0.9);
            let last = offsets.last().copied().unwrap_or_default();
            self.fc.sim.delay(last.mul_f64(frac)).await;
            let k = self.rng.borrow_mut().usize_below(offsets.len().max(1));
            let victim = ids.get(k).copied().unwrap_or(first + k);
            self.set_status_by_id(victim, InstanceStatus::Failed);
            self.fc.runs_failed.set(self.fc.runs_failed.get() + 1);
            simtrace::counter("fabric.starts_failed", 1);
            simtrace::instant(simtrace::Layer::Fabric, "startup_failure", || {
                format!("vm{victim}")
            });
            if sp.is_recording() {
                sp.attr("outcome", "startup failure");
            }
            return Err(FabricError::StartupFailure);
        }
        for (k, off) in offsets.iter().enumerate() {
            let wait = (start + *off) - self.fc.sim.now();
            self.fc.sim.delay(wait).await;
            // Skip instances reaped/removed while we slept.
            if self.set_status_by_id(ids[k], InstanceStatus::Ready) {
                simtrace::counter("fabric.instances_live", 1);
                if let Some(lb) = &self.lb {
                    lb.attach(ids[k]);
                }
            }
            if let Some(boot) = boot_spans[k].take() {
                boot.end();
            }
        }
        self.status.set(DeploymentStatus::Running);
        self.fc.runs_ok.set(self.fc.runs_ok.get() + 1);
        simtrace::counter("fabric.starts_ok", 1);
        Ok(PhaseReport {
            phase,
            duration: self.fc.sim.now() - start,
            instance_ready_offsets: offsets.to_vec(),
        })
    }

    /// Set the status of the instance with id `id`, if still present.
    fn set_status_by_id(&self, id: usize, status: InstanceStatus) -> bool {
        let instances = self.instances.borrow();
        match instances.iter().find(|inst| inst.index == id) {
            Some(inst) => {
                inst.status.set(status);
                true
            }
            None => false,
        }
    }

    /// Stop all instances (Table 1 "Suspend"); web roles take the extra
    /// load-balancer drain + IIS shutdown the table shows.
    pub async fn suspend(&self) -> Result<PhaseReport, FabricError> {
        if self.status.get() != DeploymentStatus::Running {
            return Err(FabricError::InvalidState("suspend requires running"));
        }
        let spec = self.spec.get();
        let row = calib::paper_table1(spec.role, spec.size);
        let dur = {
            let mut rng = self.rng.borrow_mut();
            TruncNormal::new(row.suspend.avg, row.suspend.std, 3.0).sample(&mut rng)
                * self.fc.cfg.lifecycle_scale
        };
        let start = self.fc.sim.now();
        let sp = simtrace::span(
            simtrace::Layer::Fabric,
            phase_span_kind(Phase::Suspend),
            || format!("instances 0..{}", self.instance_count()),
        );
        // Web roles drain in-flight connections first (this is folded
        // into Table 1's idle-traffic suspend numbers; live traffic can
        // only make the suspend longer, as in production).
        if let Some(lb) = &self.lb {
            let drain = sp.child("lb.drain", || "loadbalancer".into());
            lb.drain().await;
            drain.end();
        }
        self.fc.sim.delay(SimDuration::from_secs_f64(dur)).await;
        let mut was_ready = 0i64;
        for inst in self.instances.borrow().iter() {
            if inst.status.get() == InstanceStatus::Ready {
                was_ready += 1;
            }
            inst.status.set(InstanceStatus::Stopped);
            if let Some(lb) = &self.lb {
                lb.detach(inst.index);
            }
        }
        if was_ready > 0 {
            simtrace::counter("fabric.instances_live", -was_ready);
        }
        self.status.set(DeploymentStatus::Suspended);
        Ok(PhaseReport {
            phase: Phase::Suspend,
            duration: self.fc.sim.now() - start,
            instance_ready_offsets: Vec::new(),
        })
    }

    /// Remove the deployment (Table 1 "Delete", ~6 s flat); releases the
    /// quota.
    pub async fn delete(&self) -> Result<PhaseReport, FabricError> {
        match self.status.get() {
            DeploymentStatus::Suspended | DeploymentStatus::Created => {}
            _ => return Err(FabricError::InvalidState("delete requires suspended")),
        }
        let spec = self.spec.get();
        let row = calib::paper_table1(spec.role, spec.size);
        let dur = {
            let mut rng = self.rng.borrow_mut();
            TruncNormal::new(row.delete.avg, row.delete.std, 1.0).sample(&mut rng)
                * self.fc.cfg.lifecycle_scale
        };
        let start = self.fc.sim.now();
        let _sp = simtrace::span(
            simtrace::Layer::Fabric,
            phase_span_kind(Phase::Delete),
            || format!("instances 0..{}", self.instance_count()),
        );
        self.fc.sim.delay(SimDuration::from_secs_f64(dur)).await;
        let cores = self.instance_count() as u32 * spec.size.cores();
        self.fc.used_cores.set(self.fc.used_cores.get() - cores);
        self.status.set(DeploymentStatus::Deleted);
        Ok(PhaseReport {
            phase: Phase::Delete,
            duration: self.fc.sim.now() - start,
            instance_ready_offsets: Vec::new(),
        })
    }
}

fn row_run_std(spec: DeploymentSpec) -> f64 {
    calib::paper_table1(spec.role, spec.size).run.std
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_fail_cfg() -> FabricConfig {
        FabricConfig {
            startup_failure_p: 0.0,
            ..FabricConfig::default()
        }
    }

    fn lifecycle(
        seed: u64,
        role: RoleType,
        size: VmSize,
        cfg: FabricConfig,
    ) -> Result<Vec<(Phase, f64)>, FabricError> {
        let sim = Sim::new(seed);
        let fc = FabricController::new(&sim, cfg);
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(role, size))
                .await?;
            let mut out = vec![(Phase::Create, dep.create_duration().as_secs_f64())];
            let run = dep.run().await?;
            out.push((Phase::Run, run.duration.as_secs_f64()));
            if size != VmSize::ExtraLarge {
                let add = dep.add_instances().await?;
                out.push((Phase::Add, add.duration.as_secs_f64()));
            }
            let sus = dep.suspend().await?;
            out.push((Phase::Suspend, sus.duration.as_secs_f64()));
            let del = dep.delete().await?;
            out.push((Phase::Delete, del.duration.as_secs_f64()));
            Ok(out)
        });
        sim.run();
        h.try_take().unwrap()
    }

    #[test]
    fn full_lifecycle_produces_all_phases() {
        let phases = lifecycle(1, RoleType::Worker, VmSize::Small, no_fail_cfg()).unwrap();
        let names: Vec<Phase> = phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            names,
            vec![
                Phase::Create,
                Phase::Run,
                Phase::Add,
                Phase::Suspend,
                Phase::Delete
            ]
        );
        for (p, d) in &phases {
            assert!(*d > 0.0, "{p} has zero duration");
        }
    }

    #[test]
    fn phase_means_track_table1_over_many_runs() {
        // 40 seeds per cell is plenty to land within ~15 % of the mean.
        for role in RoleType::ALL {
            for size in [VmSize::Small, VmSize::Large] {
                let row = calib::paper_table1(role, size);
                let mut sums = [0.0f64; 5];
                let mut counts = [0u32; 5];
                for seed in 0..40 {
                    let phases = lifecycle(1000 + seed, role, size, no_fail_cfg()).unwrap();
                    for (p, d) in phases {
                        let i = Phase::ALL.iter().position(|q| *q == p).unwrap();
                        sums[i] += d;
                        counts[i] += 1;
                    }
                }
                let check = |i: usize, target: f64| {
                    let mean = sums[i] / counts[i] as f64;
                    let rel = (mean - target).abs() / target;
                    assert!(
                        rel < 0.18,
                        "{role}/{size} {}: mean {mean:.1} vs table {target}",
                        Phase::ALL[i]
                    );
                };
                check(0, row.create.avg);
                check(1, row.run.avg);
                if let Some(add) = row.add {
                    check(2, add.avg);
                }
                check(3, row.suspend.avg);
                // Delete is tiny; allow absolute slack instead.
                let dmean = sums[4] / counts[4] as f64;
                assert!((dmean - row.delete.avg).abs() < 3.0, "delete mean {dmean}");
            }
        }
    }

    #[test]
    fn small_run_staggers_instances_about_4_minutes() {
        let sim = Sim::new(5);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small))
                .await
                .unwrap();
            dep.run().await.unwrap().instance_ready_offsets
        });
        sim.run();
        let offsets = h.try_take().unwrap();
        assert_eq!(offsets.len(), 4);
        let lag_1_to_4 = offsets[3].as_secs_f64() - offsets[0].as_secs_f64();
        assert!(
            (150.0..350.0).contains(&lag_1_to_4),
            "1st→4th lag = {lag_1_to_4}s (paper: ~4 min)"
        );
    }

    #[test]
    fn bigger_package_creates_slower() {
        let time_for = |mb: f64| {
            let sim = Sim::new(6);
            let fc = FabricController::new(&sim, no_fail_cfg());
            let h = sim.spawn(async move {
                let dep = fc
                    .create_deployment(DeploymentSpec {
                        role: RoleType::Worker,
                        size: VmSize::Small,
                        instances: 4,
                        package_mb: mb,
                    })
                    .await
                    .unwrap();
                dep.create_duration().as_secs_f64()
            });
            sim.run();
            h.try_take().unwrap()
        };
        // Same seed, so the only difference is the package term: ~30 s.
        let delta = time_for(5.0) - time_for(1.2);
        assert!((delta - 30.0).abs() < 2.0, "delta={delta}");
    }

    #[test]
    fn quota_is_enforced() {
        let sim = Sim::new(7);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            // 2 XL (16 cores) fits; a further large (4) fits exactly;
            // one more small does not.
            let d1 = fc
                .create_deployment(DeploymentSpec {
                    role: RoleType::Worker,
                    size: VmSize::ExtraLarge,
                    instances: 2,
                    package_mb: 5.0,
                })
                .await
                .unwrap();
            let d2 = fc
                .create_deployment(DeploymentSpec {
                    role: RoleType::Worker,
                    size: VmSize::Large,
                    instances: 1,
                    package_mb: 5.0,
                })
                .await
                .unwrap();
            let over = fc
                .create_deployment(DeploymentSpec {
                    role: RoleType::Worker,
                    size: VmSize::Small,
                    instances: 1,
                    package_mb: 5.0,
                })
                .await;
            let _ = (d1, d2);
            over.err()
        });
        sim.run();
        match h.try_take().unwrap() {
            Some(FabricError::QuotaExceeded {
                requested,
                available,
            }) => {
                assert_eq!(requested, 1);
                assert_eq!(available, 0);
            }
            other => panic!("expected quota error, got {other:?}"),
        }
    }

    #[test]
    fn delete_releases_quota() {
        let sim = Sim::new(8);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let fc2 = Rc::clone(&fc);
        let h = sim.spawn(async move {
            let dep = fc2
                .create_deployment(DeploymentSpec::paper_test(RoleType::Web, VmSize::Large))
                .await
                .unwrap();
            dep.run().await.unwrap();
            let during = fc2.quota_available();
            dep.suspend().await.unwrap();
            dep.delete().await.unwrap();
            (during, fc2.quota_available())
        });
        sim.run();
        let (during, after) = h.try_take().unwrap();
        assert_eq!(during, 16);
        assert_eq!(after, 20);
    }

    #[test]
    fn xl_add_is_unsupported() {
        let sim = Sim::new(9);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(
                    RoleType::Worker,
                    VmSize::ExtraLarge,
                ))
                .await
                .unwrap();
            dep.run().await.unwrap();
            dep.add_instances().await.err()
        });
        sim.run();
        assert!(matches!(
            h.try_take().unwrap(),
            Some(FabricError::Unsupported(_))
        ));
    }

    #[test]
    fn startup_failures_occur_at_configured_rate() {
        let mut failures = 0;
        let mut total = 0;
        for seed in 0..300 {
            let r = lifecycle(
                50_000 + seed,
                RoleType::Worker,
                VmSize::Medium,
                FabricConfig {
                    startup_failure_p: 0.026,
                    ..FabricConfig::default()
                },
            );
            total += 1;
            if matches!(r, Err(FabricError::StartupFailure)) {
                failures += 1;
            }
        }
        let rate = failures as f64 / total as f64;
        // Two phases (run+add) each sample the 2.6 % failure, so the
        // per-lifecycle rate is ~5 %; accept a broad band.
        assert!((0.01..0.12).contains(&rate), "failure rate={rate}");
    }

    #[test]
    fn lifecycle_is_invalid_out_of_order() {
        let sim = Sim::new(10);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small))
                .await
                .unwrap();
            // Suspend before run is invalid; delete from created is fine.
            let bad = dep.suspend().await.err();
            let ok = dep.delete().await.is_ok();
            (bad, ok)
        });
        sim.run();
        let (bad, ok) = h.try_take().unwrap();
        assert!(matches!(bad, Some(FabricError::InvalidState(_))));
        assert!(ok);
    }

    #[test]
    fn web_deployment_serves_through_the_load_balancer() {
        let sim = Sim::new(12);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(RoleType::Web, VmSize::Small))
                .await
                .unwrap();
            // Before run: nothing in rotation.
            assert!(dep
                .handle_request(SimDuration::from_millis(10))
                .await
                .is_err());
            dep.run().await.unwrap();
            assert_eq!(dep.load_balancer().unwrap().in_rotation(), 4);
            for _ in 0..8 {
                dep.handle_request(SimDuration::from_millis(10))
                    .await
                    .unwrap();
            }
            // Suspend with a request in flight: the drain must wait.
            let dep = Rc::new(dep);
            let dep2 = Rc::clone(&dep);
            let _slow = dep.fc.sim.clone().spawn(async move {
                dep2.handle_request(SimDuration::from_secs(20))
                    .await
                    .unwrap();
            });
            // Let the slow request get routed first.
            dep.fc.sim.delay(SimDuration::from_millis(1)).await;
            let t0 = dep.fc.sim.now();
            let sus = dep.suspend().await.unwrap();
            let waited = (dep.fc.sim.now() - t0).as_secs_f64();
            assert!(waited >= 20.0 - 0.1, "suspend did not drain: {waited}s");
            assert!(sus.duration.as_secs_f64() >= 20.0 - 0.1);
            // After suspend everything is out of rotation.
            assert_eq!(dep.load_balancer().unwrap().in_rotation(), 0);
            dep.load_balancer().unwrap().routed_total()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 9);
    }

    #[test]
    fn run_with_retry_survives_startup_failures() {
        // 60 % per-attempt failure: the single-attempt run() would fail
        // most seeds, but the retrying form must come up eventually.
        let sim = Sim::new(13);
        let fc = FabricController::new(
            &sim,
            FabricConfig {
                startup_failure_p: 0.6,
                ..FabricConfig::default()
            },
        );
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small))
                .await
                .unwrap();
            let report = dep
                .run_with_retry(&simfault::RetryPolicy::fixed(30.0, simfault::FOREVER))
                .await
                .unwrap();
            (report.phase, dep.instance_status(0))
        });
        sim.run();
        let (phase, status) = h.try_take().unwrap();
        assert_eq!(phase, Phase::Run);
        assert_eq!(status, InstanceStatus::Ready);
    }

    #[test]
    fn instances_execute_work_on_their_hosts() {
        let sim = Sim::new(11);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let dep = fc
                .create_deployment(DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small))
                .await
                .unwrap();
            dep.run().await.unwrap();
            dep.execute_on(0, SimDuration::from_mins(10)).await
        });
        sim.run();
        // Variation disabled by default -> exactly nominal.
        assert_eq!(h.try_take().unwrap(), SimDuration::from_mins(10));
    }

    #[test]
    fn add_instances_n_grows_by_count_and_staggers() {
        let sim = Sim::new(41);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let spec = DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small);
            let dep = fc.create_deployment(spec).await.unwrap();
            dep.run().await.unwrap();
            let before = dep.instance_count();
            let report = dep.add_instances_n(3).await.unwrap();
            assert_eq!(dep.instance_count(), before + 3);
            assert_eq!(dep.ready_count(), before + 3);
            assert_eq!(dep.spec().instances, before + 3);
            assert_eq!(report.instance_ready_offsets.len(), 3);
            // Offsets strictly increase (per-instance staggers).
            let offs: Vec<f64> = report
                .instance_ready_offsets
                .iter()
                .map(|d| d.as_secs_f64())
                .collect();
            assert!(offs.windows(2).all(|w| w[1] > w[0]), "offs={offs:?}");
            // First capacity arrives around the add-first-boot mean plus
            // one stagger, far from instantaneous.
            assert!(offs[0] > 100.0, "first add offset {:.1}", offs[0]);
            fc.quota_available()
        });
        sim.run();
        h.try_take().unwrap();
    }

    #[test]
    fn add_instances_n_rolls_back_on_startup_failure() {
        // Adds at the default 2.6% failure rate: every successful add
        // grows the fleet by one; every failed add must leave the
        // instance count and quota exactly where they were.
        let sim = Sim::new(43);
        let fc = FabricController::new(&sim, FabricConfig::default());
        let h = sim.spawn(async move {
            let spec = DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small);
            let dep = fc
                .create_deployment(spec)
                .await
                .expect("quota fits initial");
            dep.run_with_retry(&simfault::RetryPolicy::fixed(10.0, 8))
                .await
                .expect("retry brings it up");
            let mut saw_rollback = false;
            for _ in 0..200 {
                let before = dep.instance_count();
                let quota_before = fc.quota_available();
                match dep.add_instances_n(1).await {
                    Ok(_) => {
                        assert_eq!(dep.instance_count(), before + 1);
                        // Trim back down to keep quota room.
                        assert_eq!(dep.remove_instances(1), 1);
                        assert_eq!(fc.quota_available(), quota_before);
                    }
                    Err(FabricError::StartupFailure) => {
                        assert_eq!(dep.instance_count(), before, "rollback removes the batch");
                        assert_eq!(fc.quota_available(), quota_before, "quota released");
                        saw_rollback = true;
                    }
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
            saw_rollback
        });
        sim.run();
        assert!(
            h.try_take().unwrap(),
            "200 adds at 2.6% failure rate should hit at least one rollback"
        );
    }

    #[test]
    fn remove_instances_releases_quota_newest_first() {
        let sim = Sim::new(44);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let spec = DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small);
            let dep = fc.create_deployment(spec).await.unwrap();
            dep.run().await.unwrap();
            dep.add_instances_n(4).await.unwrap();
            let quota = fc.quota_available();
            let n = dep.instance_count();
            assert_eq!(dep.remove_instances(2), 2);
            assert_eq!(dep.instance_count(), n - 2);
            assert_eq!(dep.ready_count(), n - 2);
            assert_eq!(dep.spec().instances, n - 2);
            assert_eq!(
                fc.quota_available(),
                quota + 2 * VmSize::Small.cores(),
                "scale-in releases cores"
            );
            // Removing more than exist removes what's there.
            assert_eq!(dep.remove_instances(100), n - 2);
            assert_eq!(dep.instance_count(), 0);
        });
        sim.run();
        h.try_take().unwrap();
    }

    #[test]
    fn reap_dead_removes_instances_on_crashed_hosts() {
        // Crash every host: all Ready instances must be reaped and the
        // quota fully released.
        let plan = simfault::FaultPlan {
            name: "all-hosts-down",
            storage: simfault::StorageFaults::clean(),
            episodes: (0..64)
                .map(|h| simfault::FaultEpisode {
                    kind: simfault::FaultKind::HostCrash { host: h },
                    start_s: 0.0,
                    duration_s: 1e9,
                })
                .collect(),
        };
        let sim = Sim::new(45);
        let _guard = simfault::install(&sim, &plan);
        let fc = FabricController::new(&sim, no_fail_cfg());
        let h = sim.spawn(async move {
            let spec = DeploymentSpec::paper_test(RoleType::Worker, VmSize::Small);
            let dep = fc.create_deployment(spec).await.unwrap();
            dep.run().await.unwrap();
            let n = dep.instance_count();
            assert!(n > 0);
            let reaped = dep.reap_dead();
            assert_eq!(reaped, n);
            assert_eq!(dep.instance_count(), 0);
            assert_eq!(fc.quota_available(), FabricConfig::default().quota_cores);
            // Nothing left to reap.
            assert_eq!(dep.reap_dead(), 0);
        });
        sim.run();
        h.try_take().unwrap();
    }

    #[test]
    fn lifecycle_scale_compresses_every_phase_exactly() {
        // Same seed at scale 1.0 and 1/128: every phase duration must be
        // exactly the unscaled duration times the scale (the RNG draw
        // sequence is identical, only the final multiply differs).
        let scale = 1.0 / 128.0;
        let full = lifecycle(77, RoleType::Worker, VmSize::Small, no_fail_cfg()).unwrap();
        let tiny = lifecycle(
            77,
            RoleType::Worker,
            VmSize::Small,
            FabricConfig {
                lifecycle_scale: scale,
                ..no_fail_cfg()
            },
        )
        .unwrap();
        assert_eq!(full.len(), tiny.len());
        for ((p, d_full), (q, d_tiny)) in full.iter().zip(tiny.iter()) {
            assert_eq!(p, q);
            assert!(
                (d_tiny - d_full * scale).abs() < 1e-6,
                "{p}: {d_tiny} vs {} * {scale}",
                d_full
            );
        }
        // A scaled cold start (create + run) lands in whole seconds, not
        // minutes: the Table 1 tax compressed to container size.
        let cold = tiny[0].1 + tiny[1].1;
        assert!((1.0..10.0).contains(&cold), "scaled cold start {cold}s");
    }

    #[test]
    fn scale_out_lead_matches_add_calibration() {
        let lead = calib::scale_out_lead_s(RoleType::Worker, VmSize::Small).unwrap();
        let b1 = calib::add_first_boot_mean(RoleType::Worker, VmSize::Small).unwrap();
        let lag = calib::add_stagger_mean(RoleType::Worker, VmSize::Small).unwrap();
        assert!((lead - (b1 + lag)).abs() < 1e-9);
        // Table 1 small worker: ≈ 293 + 183 s — the ten-minute tax.
        assert!((400.0..560.0).contains(&lead), "lead={lead}");
        assert!(calib::scale_out_lead_s(RoleType::Worker, VmSize::ExtraLarge).is_none());
    }
}
