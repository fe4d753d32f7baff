//! The engine configuration every workload runs under, with every field
//! set here. `EngineConfig::new` reads `HALOX_RUN_MODE`, `HALOX_NB_KERNEL`,
//! `HALOX_DLB`, `HALOX_BACKEND` and `HALOX_CKPT`; building the struct
//! literally keeps an inherited variable from changing what is measured,
//! and a field added to `EngineConfig` later fails to compile here.

use halox_engine::{
    DlbMode, EngineConfig, ExchangeBackend, Integrator, NbKernel, RunMode, Thermostat,
    WatchdogConfig, WorldBackend,
};
use std::time::Duration;

/// Two PEs: one per core of the 2-core host the benchmark targets.
pub const GRID: [usize; 3] = [2, 1, 1];

/// Fused transport, threaded executor on the threads world backend,
/// cluster kernel with overlap, all-NVLink topology (no proxy threads),
/// no link delay, no DLB, no checkpoints, no faults.
pub fn engine_config(nstlist: usize, thermostat: Option<Thermostat>) -> EngineConfig {
    EngineConfig {
        cutoff: 0.7,
        buffer: 0.1,
        dt_ps: 0.0005,
        nstlist,
        backend: ExchangeBackend::NvshmemFused,
        run_mode: RunMode::Threaded,
        nb_kernel: NbKernel::Cluster,
        dlb: DlbMode::Off,
        nb_overlap: true,
        link_delay_us: 0,
        topology_gpus_per_node: None,
        thermostat,
        integrator: Integrator::Leapfrog,
        trace: None,
        world_backend: WorldBackend::Threads,
        watchdog: WatchdogConfig {
            deadline: Duration::from_secs(5),
            max_retries: 1,
            backoff: Duration::from_millis(5),
            repromote_after: 2,
            fallback: ExchangeBackend::Mpi,
        },
        chaos: None,
        checkpoint: None,
    }
}

/// The serial reference executor on otherwise identical settings.
pub fn serial(cfg: &EngineConfig) -> EngineConfig {
    EngineConfig {
        run_mode: RunMode::Serial,
        trace: None,
        ..cfg.clone()
    }
}

/// One-line rendering of the resolved configuration, printed with every
/// result.
pub fn describe(cfg: &EngineConfig) -> String {
    let thermostat = match cfg.thermostat {
        Some(t) => format!("berendsen(t_ref={} K, tau={} ps)", t.t_ref, t.tau_ps),
        None => "none".into(),
    };
    let wd = &cfg.watchdog;
    format!(
        "grid={GRID:?} cutoff={} buffer={} dt_ps={} nstlist={} backend={} run_mode={} \
         nb_kernel={} dlb={} nb_overlap={} link_delay_us={} topology={} thermostat={} \
         integrator={:?} trace={} world_backend={} watchdog(deadline={:?}, retries={}, \
         backoff={:?}, repromote_after={}, fallback={}) chaos={} checkpoint={}",
        cfg.cutoff,
        cfg.buffer,
        cfg.dt_ps,
        cfg.nstlist,
        cfg.backend.label(),
        cfg.run_mode.label(),
        cfg.nb_kernel.label(),
        cfg.dlb.label(),
        cfg.nb_overlap,
        cfg.link_delay_us,
        match cfg.topology_gpus_per_node {
            Some(g) => format!("islands({g})"),
            None => "all-nvlink".into(),
        },
        thermostat,
        cfg.integrator,
        if cfg.trace.is_some() {
            "recorder"
        } else {
            "off"
        },
        cfg.world_backend.label(),
        wd.deadline,
        wd.max_retries,
        wd.backoff,
        wd.repromote_after,
        wd.fallback.label(),
        if cfg.chaos.is_some() { "plan" } else { "off" },
        if cfg.checkpoint.is_some() {
            "on"
        } else {
            "off"
        },
    )
}
