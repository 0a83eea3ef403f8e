//! # fred — reproduction of *FRED: A Wafer-scale Fabric for 3D Parallel DNN Training* (ISCA 2025)
//!
//! This facade crate re-exports the whole reproduction stack:
//!
//! * [`sim`] — discrete-event, flow-level network simulator substrate,
//! * [`core`] — the FRED switch, interconnect, routing and fabric (the
//!   paper's primary contribution),
//! * [`mesh`] — the baseline wafer-scale 2D mesh,
//! * [`collectives`] — collective-communication plans and cost models,
//! * [`workloads`] — DNN models, 3D parallelism and the trainer,
//! * [`cluster`] — multi-tenant cluster scheduling: concurrent jobs,
//!   placement, bandwidth isolation and job-level SLO metrics,
//! * [`hwmodel`] — area/power/wafer-budget/I/O-hotspot analytics,
//! * [`dse`] — design-space-exploration sweeps and Pareto extraction,
//! * [`telemetry`] — trace events, ring-buffer recording, Perfetto
//!   export and link-utilization metrics.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

pub use fred_cluster as cluster;
pub use fred_collectives as collectives;
pub use fred_core as core;
pub use fred_dse as dse;
pub use fred_hwmodel as hwmodel;
pub use fred_mesh as mesh;
pub use fred_sim as sim;
pub use fred_telemetry as telemetry;
pub use fred_workloads as workloads;
