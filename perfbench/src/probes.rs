//! Per-layer probes: the benchmark's own timed calls into each crate's
//! public functions, on the workload's own inputs. Each probe runs inside
//! a benchmark span. Probes run only in the traced run.

use crate::config::GRID;
use crate::util::{median, median_time, Metrics, Spans, Tally};
use halox_core::sched::{simulate, Backend, ScheduleInput};
use halox_core::{build_contexts, exec, CommContext, FusedBuffers, Watchdog};
use halox_dd::{try_build_partition_with, DdBounds, DdGrid, DdPartition, WorkloadModel};
use halox_engine::{Checkpoint, Engine, EngineConfig, StatsSnapshot};
use halox_gpusim::MachineModel;
use halox_md::cluster::{compute_nonbonded_clusters, ClusterPairList, NbPartition};
use halox_md::pairlist::eighth_shell_rule;
use halox_md::{EnergyReport, Frame, NonbondedParams, SoaCoords, SoaForces, System, Vec3};
use halox_shmem::{Collectives, ShmemWorld, Topology, TwoSidedComm, WorldBackend};
use std::path::Path;
use std::time::{Duration, Instant};

/// Exchange rounds per timed world run: enough to amortise the world's
/// thread spawn, which `shmem.run_noop_us` reports on its own.
const ROUNDS: u64 = 200;
/// Independent trials per exchange/collective probe; the median is kept.
const TRIALS: usize = 3;

/// What the probes measured that the caller prints beside the run's own
/// layer numbers.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSummary {
    pub fused_round_us: f64,
    pub mpi_round_us: f64,
    pub pred_step_us: f64,
    pub pred_local_us: f64,
    pub pred_nonlocal_us: f64,
    pub pred_fused_vs_mpi: f64,
}

fn world(n: usize, slots: usize) -> ShmemWorld {
    ShmemWorld::new_with_backend(WorldBackend::Threads, Topology::all_nvlink(n), slots)
}

/// Microseconds per coordinate-plus-force round of the fused exchange,
/// slowest PE; `None` if any exchange call returned an error.
fn fused_round_us(part: &DdPartition, ctxs: &[CommContext]) -> Option<f64> {
    let n = part.n_ranks();
    let w = world(n, CommContext::slots_needed(part.total_pulses()));
    let bufs = FusedBuffers::alloc(n, &ctxs[0]);
    for r in &part.ranks {
        bufs.coords.load_from(r.rank, &r.build_positions);
    }
    let wd = Watchdog::new(Duration::from_secs(5));
    let per_pe = w
        .try_run(|pe| -> f64 {
            let ctx = &ctxs[pe.id];
            let t = Instant::now();
            for sig in 1..=ROUNDS {
                let coords = exec::fused_pack_comm_x(pe, ctx, &bufs, sig, &wd)
                    .and_then(|()| exec::wait_coordinate_arrivals(pe, ctx, sig, &wd));
                if coords.is_err() {
                    return -1.0;
                }
                exec::ack_coordinate_consumed(pe, ctx, sig);
                if exec::fused_comm_unpack_f(pe, ctx, &bufs, sig, &wd).is_err() {
                    return -1.0;
                }
            }
            t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
        })
        .ok()?;
    slowest(&per_pe)
}

/// The same round through the serialized two-sided (MPI-style) exchange.
fn mpi_round_us(part: &DdPartition, ctxs: &[CommContext]) -> Option<f64> {
    let n = part.n_ranks();
    let w = world(n, 1);
    let comm = TwoSidedComm::new(n);
    let per_pe = w
        .try_run(|pe| -> f64 {
            let ctx = &ctxs[pe.id];
            let plan = &part.ranks[pe.id];
            let mut coords = plan.build_positions.clone();
            let mut forces = vec![Vec3::ZERO; plan.n_local()];
            let t = Instant::now();
            for step in 1..=ROUNDS {
                let ok = exec::mpi::coordinate_exchange(&comm, ctx, step, &mut coords, None)
                    .and_then(|()| exec::mpi::force_exchange(&comm, ctx, step, &mut forces, None));
                if ok.is_err() {
                    return -1.0;
                }
            }
            t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
        })
        .ok()?;
    slowest(&per_pe)
}

fn slowest(per_pe: &[f64]) -> Option<f64> {
    if per_pe.iter().any(|&v| v < 0.0) {
        return None;
    }
    per_pe.iter().copied().reduce(f64::max)
}

/// Median over [`TRIALS`] of a probe that may fail; failures are counted.
fn trials(tally: &mut Tally, what: &str, mut f: impl FnMut() -> Option<f64>) -> f64 {
    let mut values = Vec::new();
    for _ in 0..TRIALS {
        match f() {
            Some(v) => {
                tally.ok();
                values.push(v);
            }
            None => tally.fail(false, format!("{what} probe returned an error")),
        }
    }
    median(&values)
}

/// Run every probe on `system` under `cfg` and append the probe metrics.
/// `end` is a trajectory end state (system and per-step energies) for the
/// checkpoint probe; `builds` is how many pair-list builds to time.
#[allow(clippy::too_many_arguments)]
pub fn run(
    system: &System,
    cfg: &EngineConfig,
    end: (&System, &[EnergyReport]),
    builds: usize,
    scratch: &Path,
    spans: &mut Spans,
    m: &mut Metrics,
    tally: &mut Tally,
) -> ProbeSummary {
    let root = spans.enter("probes", 0);
    let grid = DdGrid::new(GRID);
    let bounds = DdBounds::uniform(&grid);
    let r_comm = cfg.r_comm();

    // dd: partition build, and the halo it produces.
    let id = spans.enter("dd.partition", 0);
    let mut part = None;
    let partition_s = median_time(builds.max(3), || {
        part = Some(try_build_partition_with(
            system, &grid, &bounds, r_comm, None,
        ));
    });
    spans.exit(id);
    let part = match part.expect("at least one partition build") {
        Ok(p) => {
            tally.ok();
            p
        }
        Err(e) => panic!("the workload's own system failed to decompose: {e}"),
    };
    m.put("dd.partition_ms", partition_s * 1e3, "ms");
    m.put("dd.halo_atoms", part.total_halo_atoms() as f64, "count");
    m.put("dd.pulses", part.total_pulses() as f64, "count");

    // md: rank 0's cluster pair-list build and kernel throughput.
    let plan = &part.ranks[0];
    let frame = Frame::for_decomposition(&system.pbc, part.grid.dims);
    let disp = &plan.displacement;
    let ids = &plan.global_ids;
    let rule = move |i: usize, j: usize| {
        eighth_shell_rule(disp, i, j) && !system.is_excluded(ids[i] as usize, ids[j] as usize)
    };
    let build = || {
        ClusterPairList::build(
            &frame,
            &plan.build_positions,
            &plan.kinds,
            plan.n_home,
            r_comm,
            &rule,
        )
    };
    let id = spans.enter("md.pairlist_build", 0);
    let build_s = median_time(builds, || {
        std::hint::black_box(build());
    });
    spans.exit(id);
    m.put("md.pairlist_build_ms", build_s * 1e3, "ms");

    let list = build();
    let params = NonbondedParams::new(cfg.cutoff);
    let mut coords = SoaCoords::default();
    let mut lanes = SoaForces::default();
    list.pack_coords(&plan.build_positions, &mut coords, 0..list.n_clusters());
    let id = spans.enter("md.nb_kernel", 0);
    let kernel_s = median_time(4 * builds, || {
        lanes.reset(list.n_lanes());
        for which in [NbPartition::Local, NbPartition::Halo] {
            std::hint::black_box(compute_nonbonded_clusters(
                &frame, &coords, &list, which, &params, &mut lanes,
            ));
        }
    });
    spans.exit(id);
    m.put(
        "md.nb_pairs_per_s",
        list.n_pairs() as f64 / kernel_s,
        "pairs/s",
    );

    // core: one coordinate + force round per transport, same partition.
    let ctxs = build_contexts(&part);
    let (fused_us, _) = spans.time("core.fused_round", 0, || {
        trials(tally, "fused exchange", || fused_round_us(&part, &ctxs))
    });
    let (mpi_us, _) = spans.time("core.mpi_round", 0, || {
        trials(tally, "mpi exchange", || mpi_round_us(&part, &ctxs))
    });
    m.put("core.fused_round_us", fused_us, "us");
    m.put("core.mpi_round_us", mpi_us, "us");
    m.put("core.fused_vs_mpi", mpi_us / fused_us, "ratio");
    // Computed, not measured: each halo atom travels once as a coordinate
    // (3 x f32 in) and once as a force (3 x f32 back) per step.
    let vec3_bytes = std::mem::size_of::<Vec3>() as f64;
    m.put(
        "core.halo_bytes_per_step",
        2.0 * vec3_bytes * part.total_halo_atoms() as f64,
        "bytes",
    );

    // shmem: world construction, an empty world run, one all-reduce.
    let n = part.n_ranks();
    let slots = CommContext::slots_needed(part.total_pulses());
    let id = spans.enter("shmem.world_new", 0);
    let new_s = median_time(21, || {
        std::hint::black_box(world(n, slots));
    });
    spans.exit(id);
    m.put("shmem.world_new_ms", new_s * 1e3, "ms");
    let w = world(n, slots);
    let id = spans.enter("shmem.run_noop", 0);
    let noop_s = median_time(101, || {
        w.run(|_| ());
    });
    spans.exit(id);
    m.put("shmem.run_noop_us", noop_s * 1e6, "us");
    let (allreduce_us, _) = spans.time("shmem.allreduce", 0, || {
        trials(tally, "allreduce", || {
            let coll = Collectives::new(n);
            let per_pe = w
                .try_run(|pe| -> f64 {
                    let t = Instant::now();
                    let mut acc = 0.0;
                    for k in 0..ROUNDS {
                        acc += coll.allreduce_sum(pe.id, (pe.id as u64 + k) as f64);
                    }
                    std::hint::black_box(acc);
                    t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
                })
                .ok()?;
            slowest(&per_pe)
        })
    });
    m.put("shmem.allreduce_us", allreduce_us, "us");

    // engine: construction, and an atomic checkpoint write of the end state.
    let id = spans.enter("engine.new", 0);
    let mut samples = Vec::new();
    for _ in 0..5 {
        let sys = system.clone();
        let t = Instant::now();
        std::hint::black_box(Engine::new(sys, DdGrid::new(GRID), cfg.clone()));
        samples.push(t.elapsed().as_secs_f64());
    }
    spans.exit(id);
    m.put("engine.new_ms", median(&samples) * 1e3, "ms");

    let (end_system, end_energies) = end;
    let engine = Engine::new(end_system.clone(), DdGrid::new(GRID), cfg.clone());
    let ck = Checkpoint {
        fingerprint: engine.fingerprint(),
        step: end_energies.len() as u64,
        system: end_system.clone(),
        energies: end_energies.to_vec(),
        stats: StatsSnapshot::default(),
        bounds: engine.bounds().clone(),
    };
    let dir = scratch.join(format!("ckpt-probe-{}", std::process::id()));
    let id = spans.enter("engine.ckpt_write", 0);
    let mut written = None;
    let write_s = median_time(3, || written = Some(ck.write_atomic(&dir)));
    spans.exit(id);
    let bytes = match written.expect("three writes ran") {
        Ok(path) => {
            tally.ok();
            std::fs::metadata(&path).map_or(0, |md| md.len())
        }
        Err(e) => {
            tally.fail(false, format!("checkpoint write: {e}"));
            0
        }
    };
    // Best effort: the directory lives under the build directory.
    let _ = std::fs::remove_dir_all(&dir);
    m.put("engine.ckpt_write_ms", write_s * 1e3, "ms");
    m.put("engine.ckpt_bytes", bytes as f64, "bytes");

    // gpusim: the timing plane's prediction for this atom count and grid
    // on DGX-H100, fused and MPI schedules.
    let model = WorkloadModel::grappa(system.n_atoms(), r_comm, DdGrid::new(GRID));
    let input = ScheduleInput::from_workload(MachineModel::dgx_h100(), &model);
    let id = spans.enter("gpusim.simulate", 0);
    let mut nv = None;
    let sim_s = median_time(5, || nv = Some(simulate(Backend::Nvshmem, &input, 8, 3)));
    spans.exit(id);
    let nv = nv.expect("five simulations ran");
    let mpi = simulate(Backend::Mpi, &input, 8, 3);
    let summary = ProbeSummary {
        fused_round_us: fused_us,
        mpi_round_us: mpi_us,
        pred_step_us: nv.time_per_step_ns * 1e-3,
        pred_local_us: nv.local_work_ns * 1e-3,
        pred_nonlocal_us: nv.nonlocal_work_ns * 1e-3,
        pred_fused_vs_mpi: mpi.time_per_step_ns / nv.time_per_step_ns,
    };
    m.put("gpusim.pred_step_us", summary.pred_step_us, "us");
    m.put("gpusim.pred_local_us", summary.pred_local_us, "us");
    m.put("gpusim.pred_nonlocal_us", summary.pred_nonlocal_us, "us");
    m.put("gpusim.pred_nonoverlap_us", nv.nonoverlap_ns * 1e-3, "us");
    m.put(
        "gpusim.pred_fused_vs_mpi",
        summary.pred_fused_vs_mpi,
        "ratio",
    );
    m.put("gpusim.simulate_ms", sim_s * 1e3, "ms");

    spans.exit(root);
    summary
}
