//! The distributed, device-offloaded simulation.
//!
//! Each MPI rank owns the bodies inside its slab of the volume and keeps
//! their state resident on its assigned device (the offload model of the
//! original OpenMP-target Newton++). One step is kick-drift-kick with a
//! single force evaluation:
//!
//! 1. half kick with the cached accelerations,
//! 2. drift,
//! 3. exchange: positions/masses of *all* bodies are allgathered (direct
//!    n-body needs every source) and uploaded to the device,
//! 4. force kernel: `n_local × n_global` softened interactions,
//! 5. half kick with the fresh accelerations (cached for the next step).
//!
//! Optionally, every `repartition_every` steps bodies that drifted out of
//! their slab migrate to the owning rank (disabled in the paper's runs,
//! and by default here).

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::{CellBuffer, KernelCost, SimNode, Stream};
use minimpi::Comm;
use sensei::{Error, Result};

use crate::body::BodySet;
use crate::domain::Domain;
use crate::forces::{self, Gravity};
use crate::ic::{self, DiskIc, UniformIc};
use crate::repartition::repartition;

/// Which initial condition to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IcKind {
    /// Uniform random positions/masses/velocities with a massive central
    /// body (the paper's evaluation IC).
    Uniform(UniformIc),
    /// Exponential disk galaxy (the MAGI stand-in).
    Disk(DiskIc),
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonConfig {
    /// Initial condition.
    pub ic: IcKind,
    /// Time step.
    pub dt: f64,
    /// Gravity parameters.
    pub grav: Gravity,
    /// Extent of the decomposed axis (slab decomposition along x).
    pub x_extent: (f64, f64),
    /// Migrate bodies every this many steps (`None` = disabled, as in the
    /// paper's runs).
    pub repartition_every: Option<u64>,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        NewtonConfig {
            ic: IcKind::Uniform(UniformIc::default()),
            dt: 1e-3,
            grav: Gravity::default(),
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        }
    }
}

/// Device-resident per-rank body state.
struct DeviceState {
    x: CellBuffer,
    y: CellBuffer,
    z: CellBuffer,
    vx: CellBuffer,
    vy: CellBuffer,
    vz: CellBuffer,
    m: CellBuffer,
    ax: CellBuffer,
    ay: CellBuffer,
    az: CellBuffer,
    /// Derived per-body quantities (momenta, kinetic energy, speed),
    /// refreshed by [`Newton::update_derived`] at the end of every step so
    /// the SENSEI adaptor can publish them zero-copy.
    px: CellBuffer,
    py: CellBuffer,
    pz: CellBuffer,
    ke: CellBuffer,
    speed: CellBuffer,
}

/// The Newton++ simulation on one rank.
pub struct Newton {
    node: Arc<SimNode>,
    device: usize,
    stream: Arc<Stream>,
    cfg: NewtonConfig,
    domain: Domain,
    state: DeviceState,
    n_local: usize,
    n_global: usize,
    needs_force_refresh: bool,
    step: u64,
    time: f64,
}

impl Newton {
    /// Initialize the simulation: generate the IC (identically on every
    /// rank from the shared seed), keep this rank's slab, and upload it
    /// to `device`. Collective.
    pub fn new(
        node: Arc<SimNode>,
        comm: &Comm,
        device: usize,
        cfg: NewtonConfig,
    ) -> Result<Newton> {
        let all = match &cfg.ic {
            IcKind::Uniform(p) => ic::uniform_random(p),
            IcKind::Disk(p) => ic::disk_galaxy(p),
        };
        let domain = Domain::new(cfg.x_extent.0, cfg.x_extent.1, comm.size());
        let mine = domain.select_owned(&all, comm.rank());
        let n_global = all.len();
        let stream = node.device(device)?.create_stream();
        let state = Self::upload(&node, device, &stream, &mine)?;
        let sim = Newton {
            node,
            device,
            stream,
            cfg,
            domain,
            state,
            n_local: mine.len(),
            n_global,
            needs_force_refresh: true,
            step: 0,
            time: 0.0,
        };
        sim.update_derived()?;
        sim.stream.synchronize().map_err(Error::Device)?;
        Ok(sim)
    }

    /// Allocate device buffers for `set` and copy it up.
    fn upload(
        node: &Arc<SimNode>,
        device: usize,
        stream: &Arc<Stream>,
        set: &BodySet,
    ) -> Result<DeviceState> {
        let n = set.len();
        let dev = node.device(device)?;
        let up = |data: &[f64]| -> Result<CellBuffer> {
            let host = node.host_alloc_f64(n);
            host.host_f64().map_err(Error::Device)?.copy_from_slice(data);
            let buf = dev.alloc_f64(n)?;
            stream.copy(&host, &buf).map_err(Error::Device)?;
            Ok(buf)
        };
        let state = DeviceState {
            x: up(&set.x)?,
            y: up(&set.y)?,
            z: up(&set.z)?,
            vx: up(&set.vx)?,
            vy: up(&set.vy)?,
            vz: up(&set.vz)?,
            m: up(&set.m)?,
            ax: dev.alloc_f64(n)?,
            ay: dev.alloc_f64(n)?,
            az: dev.alloc_f64(n)?,
            px: dev.alloc_f64(n)?,
            py: dev.alloc_f64(n)?,
            pz: dev.alloc_f64(n)?,
            ke: dev.alloc_f64(n)?,
            speed: dev.alloc_f64(n)?,
        };
        stream.synchronize().map_err(Error::Device)?;
        Ok(state)
    }

    /// Copy the local body state back to the host.
    pub fn download(&self) -> Result<BodySet> {
        let down = |buf: &CellBuffer| -> Result<Vec<f64>> {
            let host = self.node.host_alloc_f64(buf.len());
            self.stream.copy(buf, &host).map_err(Error::Device)?;
            self.stream.synchronize().map_err(Error::Device)?;
            Ok(host.host_f64_ro().map_err(Error::Device)?.to_vec())
        };
        Ok(BodySet {
            x: down(&self.state.x)?,
            y: down(&self.state.y)?,
            z: down(&self.state.z)?,
            vx: down(&self.state.vx)?,
            vy: down(&self.state.vy)?,
            vz: down(&self.state.vz)?,
            m: down(&self.state.m)?,
        })
    }

    /// Half-kick kernel: `v += a * dt/2`.
    fn kick(&self, half_dt: f64) -> Result<()> {
        let n = self.n_local;
        let (vx, vy, vz) = (self.state.vx.clone(), self.state.vy.clone(), self.state.vz.clone());
        let (ax, ay, az) = (self.state.ax.clone(), self.state.ay.clone(), self.state.az.clone());
        self.stream
            .launch(
                "nbody_kick",
                KernelCost { flops: 6.0 * n as f64, bytes: 96.0 * n as f64 },
                move |scope| {
                    let (vx, vy, vz) =
                        (vx.f64_view(scope)?, vy.f64_view(scope)?, vz.f64_view(scope)?);
                    let (ax, ay, az) =
                        (ax.f64_view_ro(scope)?, ay.f64_view_ro(scope)?, az.f64_view_ro(scope)?);
                    for i in 0..vx.len() {
                        vx.set(i, vx.get(i) + ax.get(i) * half_dt);
                        vy.set(i, vy.get(i) + ay.get(i) * half_dt);
                        vz.set(i, vz.get(i) + az.get(i) * half_dt);
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Drift kernel: `x += v * dt`.
    fn drift(&self, dt: f64) -> Result<()> {
        let n = self.n_local;
        let (x, y, z) = (self.state.x.clone(), self.state.y.clone(), self.state.z.clone());
        let (vx, vy, vz) = (self.state.vx.clone(), self.state.vy.clone(), self.state.vz.clone());
        self.stream
            .launch(
                "nbody_drift",
                KernelCost { flops: 6.0 * n as f64, bytes: 96.0 * n as f64 },
                move |scope| {
                    let (x, y, z) = (x.f64_view(scope)?, y.f64_view(scope)?, z.f64_view(scope)?);
                    let (vx, vy, vz) =
                        (vx.f64_view_ro(scope)?, vy.f64_view_ro(scope)?, vz.f64_view_ro(scope)?);
                    for i in 0..x.len() {
                        x.set(i, x.get(i) + vx.get(i) * dt);
                        y.set(i, y.get(i) + vy.get(i) * dt);
                        z.set(i, z.get(i) + vz.get(i) * dt);
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Exchange all bodies' positions/masses and recompute accelerations.
    ///
    /// The exchange is host-side work (download, allgather, upload) and is
    /// charged to the host executor; the O(n_local × n_global) force
    /// evaluation runs as a device kernel.
    fn compute_forces(&mut self, comm: &Comm) -> Result<()> {
        // Download local (x, y, z, m) into four host buffers with one
        // synchronize, then bundle them into one message.
        let n = self.n_local;
        let packs = [&self.state.x, &self.state.y, &self.state.z, &self.state.m]
            .map(|buf| (buf, self.node.host_alloc_f64(n)));
        for (buf, pack) in &packs {
            self.stream.copy(buf, pack).map_err(Error::Device)?;
        }
        self.stream.synchronize().map_err(Error::Device)?;
        let mut bundle = Vec::with_capacity(4 * n);
        for (_, pack) in &packs {
            bundle.extend(pack.host_f64_ro().map_err(Error::Device)?.to_vec());
        }

        // Allgather across ranks; charged as host work (this is the
        // MPI/staging phase of the solver that competes with host-placed
        // in situ processing). The urgent lane keeps the blocking
        // collective from queueing behind asynchronous in situ kernels —
        // a rank stuck behind analysis work would hold every other rank
        // inside the allgather.
        let gathered: Vec<Vec<f64>> = self.node.host().run_urgent(
            "nbody_exchange",
            KernelCost::bytes((self.n_global * 4 * 8) as f64),
            || comm.allgather(bundle),
        );
        let n_global: usize = gathered.iter().map(|g| g.len() / 4).sum();
        self.n_global = n_global;

        // Concatenate per-variable and upload to the device.
        let gx = self.node.host_alloc_f64(n_global);
        let gy = self.node.host_alloc_f64(n_global);
        let gz = self.node.host_alloc_f64(n_global);
        let gm = self.node.host_alloc_f64(n_global);
        {
            let (vx, vy, vz, vm) = (
                gx.host_f64().map_err(Error::Device)?,
                gy.host_f64().map_err(Error::Device)?,
                gz.host_f64().map_err(Error::Device)?,
                gm.host_f64().map_err(Error::Device)?,
            );
            let mut off = 0;
            for part in &gathered {
                let pn = part.len() / 4;
                for i in 0..pn {
                    vx.set(off + i, part[i]);
                    vy.set(off + i, part[pn + i]);
                    vz.set(off + i, part[2 * pn + i]);
                    vm.set(off + i, part[3 * pn + i]);
                }
                off += pn;
            }
        }
        let dev = self.node.device(self.device)?;
        let dgx = dev.alloc_f64(n_global)?;
        let dgy = dev.alloc_f64(n_global)?;
        let dgz = dev.alloc_f64(n_global)?;
        let dgm = dev.alloc_f64(n_global)?;
        for (h, d) in [(&gx, &dgx), (&gy, &dgy), (&gz, &dgz), (&gm, &dgm)] {
            self.stream.copy(h, d).map_err(Error::Device)?;
        }

        // The O(n_local x n_global) force kernel.
        let grav = self.cfg.grav;
        let (x, y, z) = (self.state.x.clone(), self.state.y.clone(), self.state.z.clone());
        let (ax, ay, az) = (self.state.ax.clone(), self.state.ay.clone(), self.state.az.clone());
        let cost = KernelCost {
            flops: 20.0 * n as f64 * n_global as f64,
            bytes: 32.0 * (n + n_global) as f64,
        };
        self.stream
            .launch("nbody_forces", cost, move |scope| {
                // Read every view once into plain slices; the blocked
                // kernel then runs on those without per-element atomics.
                let read =
                    |buf: &CellBuffer| Ok::<_, devsim::Error>(buf.f64_view_ro(scope)?.to_vec());
                let (tx, ty, tz) = (read(&x)?, read(&y)?, read(&z)?);
                let (sx, sy, sz, sm) = (read(&dgx)?, read(&dgy)?, read(&dgz)?, read(&dgm)?);
                let n = tx.len();
                let (mut oax, mut oay, mut oaz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                forces::accelerations_blocked(
                    [&tx, &ty, &tz],
                    [&sx, &sy, &sz, &sm],
                    &grav,
                    [&mut oax, &mut oay, &mut oaz],
                );
                ax.f64_view(scope)?.copy_from_slice(&oax);
                ay.f64_view(scope)?.copy_from_slice(&oay);
                az.f64_view(scope)?.copy_from_slice(&oaz);
                Ok(())
            })
            .map_err(Error::Device)
    }

    /// Advance one time step. Collective. Returns the solver wall time of
    /// this step (what Figure 3's cyan bars measure).
    pub fn step(&mut self, comm: &Comm) -> Result<Duration> {
        let t0 = Instant::now();
        if self.needs_force_refresh {
            self.compute_forces(comm)?;
            self.needs_force_refresh = false;
        }
        let half = 0.5 * self.cfg.dt;
        self.kick(half)?;
        self.drift(self.cfg.dt)?;
        self.compute_forces(comm)?;
        self.kick(half)?;
        self.update_derived()?;
        self.stream.synchronize().map_err(Error::Device)?;
        self.step += 1;
        self.time += self.cfg.dt;

        if let Some(every) = self.cfg.repartition_every {
            if every > 0 && self.step.is_multiple_of(every) {
                self.repartition(comm)?;
            }
        }
        Ok(t0.elapsed())
    }

    /// Migrate bodies to the ranks owning their current positions.
    /// Collective.
    pub fn repartition(&mut self, comm: &Comm) -> Result<()> {
        let mine = self.download()?;
        let mine = repartition(comm, &self.domain, mine);
        self.state = Self::upload(&self.node, self.device, &self.stream, &mine)?;
        self.n_local = mine.len();
        self.needs_force_refresh = true;
        self.update_derived()?;
        self.stream.synchronize().map_err(Error::Device)?;
        Ok(())
    }

    /// Bodies owned by this rank (local count).
    pub fn num_local(&self) -> usize {
        self.n_local
    }

    /// Total bodies across all ranks (as of the last exchange).
    pub fn num_global(&self) -> usize {
        self.n_global
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The device this rank's simulation runs on.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The node.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// The simulation's stream.
    pub fn stream(&self) -> &Arc<Stream> {
        &self.stream
    }

    /// The configuration.
    pub fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    /// The domain decomposition.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// One kernel refreshing the derived per-body quantities
    /// (`px py pz ke speed`) from the current state. Stream-ordered; runs
    /// at the end of every step so in situ consumers see values
    /// consistent with the positions/velocities of the same iteration.
    fn update_derived(&self) -> Result<()> {
        let n = self.n_local;
        let (vx, vy, vz, m) = (
            self.state.vx.clone(),
            self.state.vy.clone(),
            self.state.vz.clone(),
            self.state.m.clone(),
        );
        let (px, py, pz, ke, speed) = (
            self.state.px.clone(),
            self.state.py.clone(),
            self.state.pz.clone(),
            self.state.ke.clone(),
            self.state.speed.clone(),
        );
        self.stream
            .launch(
                "nbody_derived",
                KernelCost { flops: 10.0 * n as f64, bytes: 72.0 * n as f64 },
                move |scope| {
                    let (vx, vy, vz, m) = (
                        vx.f64_view_ro(scope)?,
                        vy.f64_view_ro(scope)?,
                        vz.f64_view_ro(scope)?,
                        m.f64_view_ro(scope)?,
                    );
                    let (px, py, pz, ke, speed) = (
                        px.f64_view(scope)?,
                        py.f64_view(scope)?,
                        pz.f64_view(scope)?,
                        ke.f64_view(scope)?,
                        speed.f64_view(scope)?,
                    );
                    for i in 0..vx.len() {
                        let (vxi, vyi, vzi, mi) = (vx.get(i), vy.get(i), vz.get(i), m.get(i));
                        let v2 = vxi * vxi + vyi * vyi + vzi * vzi;
                        px.set(i, mi * vxi);
                        py.set(i, mi * vyi);
                        pz.set(i, mi * vzi);
                        ke.set(i, 0.5 * mi * v2);
                        speed.set(i, v2.sqrt());
                    }
                    Ok(())
                },
            )
            .map_err(Error::Device)
    }

    /// Zero-copy handles to the derived-quantity buffers, in the order
    /// `px, py, pz, ke, speed`.
    pub fn derived_buffers(&self) -> [(&'static str, CellBuffer); 5] {
        [
            ("px", self.state.px.clone()),
            ("py", self.state.py.clone()),
            ("pz", self.state.pz.clone()),
            ("ke", self.state.ke.clone()),
            ("speed", self.state.speed.clone()),
        ]
    }

    /// Zero-copy handles to the device-resident state, in the order
    /// `x, y, z, vx, vy, vz, m` — what the SENSEI adaptor adopts.
    pub fn state_buffers(&self) -> [(&'static str, CellBuffer); 7] {
        [
            ("x", self.state.x.clone()),
            ("y", self.state.y.clone()),
            ("z", self.state.z.clone()),
            ("vx", self.state.vx.clone()),
            ("vy", self.state.vy.clone()),
            ("vz", self.state.vz.clone()),
            ("mass", self.state.m.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{kinetic_energy, potential_energy};
    use crate::integrator::Leapfrog;
    use devsim::NodeConfig;
    use minimpi::World;

    fn small_cfg(n: usize, seed: u64) -> NewtonConfig {
        NewtonConfig {
            ic: IcKind::Uniform(UniformIc {
                n,
                seed,
                half_width: 1.0,
                mass_range: (0.5, 1.5),
                velocity_scale: 0.2,
                central_mass: 100.0,
            }),
            dt: 1e-3,
            grav: Gravity { g: 1.0, eps: 0.05 },
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        }
    }

    /// Gather the full body set, sorted by mass for stable comparison.
    fn gather_all(comm: &Comm, sim: &Newton) -> BodySet {
        let mine = sim.download().unwrap();
        let parts = comm.allgather((mine.x, mine.y, mine.z, mine.vx, mine.vy, mine.vz, mine.m));
        let mut all = BodySet::new();
        for (x, y, z, vx, vy, vz, m) in parts {
            all.extend(&BodySet { x, y, z, vx, vy, vz, m });
        }
        all
    }

    #[test]
    fn distributed_run_matches_host_reference() {
        // 2-rank device simulation vs the single-threaded host leapfrog.
        let cfg = small_cfg(24, 3);
        let reference = {
            let mut bodies = match &cfg.ic {
                IcKind::Uniform(p) => ic::uniform_random(p),
                _ => unreachable!(),
            };
            let mut lf = Leapfrog::new(cfg.dt, cfg.grav);
            for _ in 0..5 {
                lf.step(&mut bodies);
            }
            bodies
        };
        let got = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node, &comm, comm.rank() % 2, cfg).unwrap();
            for _ in 0..5 {
                sim.step(&comm).unwrap();
            }
            gather_all(&comm, &sim)
        });
        for all in got {
            assert_eq!(all.len(), reference.len());
            // Compare as mass-sorted sets (rank ordering differs).
            let mut got_sorted: Vec<(f64, f64, f64)> =
                (0..all.len()).map(|i| (all.m[i], all.x[i], all.vy[i])).collect();
            let mut ref_sorted: Vec<(f64, f64, f64)> = (0..reference.len())
                .map(|i| (reference.m[i], reference.x[i], reference.vy[i]))
                .collect();
            got_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ref_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for ((gm, gx, gvy), (rm, rx, rvy)) in got_sorted.iter().zip(&ref_sorted) {
                assert!((gm - rm).abs() < 1e-12, "masses align");
                assert!((gx - rx).abs() < 1e-9, "positions match: {gx} vs {rx}");
                assert!((gvy - rvy).abs() < 1e-9, "velocities match");
            }
        }
    }

    #[test]
    fn energy_is_conserved_in_the_distributed_run() {
        // A gentler configuration than the default: close encounters with
        // a heavy central body need dt << eps/v to stay well resolved.
        let mut cfg = small_cfg(16, 11);
        cfg.grav = Gravity { g: 1.0, eps: 0.2 };
        cfg.dt = 5e-4;
        if let IcKind::Uniform(p) = &mut cfg.ic {
            p.central_mass = 10.0;
        }
        let drifts = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
            let all0 = gather_all(&comm, &sim);
            let e0 = kinetic_energy(&all0) + potential_energy(&all0, &cfg.grav);
            for _ in 0..50 {
                sim.step(&comm).unwrap();
            }
            let all1 = gather_all(&comm, &sim);
            let e1 = kinetic_energy(&all1) + potential_energy(&all1, &cfg.grav);
            ((e1 - e0) / e0.abs()).abs()
        });
        for d in drifts {
            assert!(d < 1e-3, "relative energy drift {d}");
        }
    }

    #[test]
    fn repartitioning_preserves_the_body_count_and_physics() {
        let mut cfg = small_cfg(20, 5);
        cfg.repartition_every = Some(2);
        let got = World::new(3).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(3));
            let mut sim = Newton::new(node, &comm, comm.rank(), cfg).unwrap();
            for _ in 0..6 {
                sim.step(&comm).unwrap();
            }
            let local = sim.download().unwrap();
            // After a repartition step, every local body is in our slab.
            let owned = local.x.iter().all(|&x| sim.domain().owner_of(x) == comm.rank());
            let total = comm.allreduce(local.len(), |a, b| a + b);
            (owned, total)
        });
        for (owned, total) in got {
            assert!(owned);
            assert_eq!(total, 20);
        }
    }

    #[test]
    fn step_advances_time_and_counters() {
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let cfg = small_cfg(8, 1);
            let mut sim = Newton::new(node, &comm, 0, cfg).unwrap();
            assert_eq!(sim.step_count(), 0);
            assert_eq!(sim.num_global(), 8);
            sim.step(&comm).unwrap();
            sim.step(&comm).unwrap();
            assert_eq!(sim.step_count(), 2);
            assert!((sim.time() - 2e-3).abs() < 1e-15);
            assert_eq!(sim.num_local(), 8);
        });
    }

    #[test]
    fn state_buffers_are_zero_copy_views_of_the_simulation() {
        World::new(1).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let mut sim = Newton::new(node.clone(), &comm, 0, small_cfg(8, 2)).unwrap();
            let before = sim.download().unwrap();
            let bufs = sim.state_buffers();
            assert_eq!(bufs[0].0, "x");
            // The handle aliases live state: after a step it sees new data.
            sim.step(&comm).unwrap();
            let after = sim.download().unwrap();
            let x_view = {
                let host = node.host_alloc_f64(bufs[0].1.len());
                sim.stream().copy(&bufs[0].1, &host).unwrap();
                sim.stream().synchronize().unwrap();
                host.host_f64_ro().unwrap().to_vec()
            };
            assert_eq!(x_view, after.x);
            assert_ne!(before.x, after.x, "bodies moved");
        });
    }
}
