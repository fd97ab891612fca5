//! Memoized scenario cost tables: the fleet's pricing, computed once.
//!
//! Scheduling, routing and idle-energy accounting all consult *modeled
//! estimates* — [`Backend::estimate_cost_ns`],
//! [`Backend::estimate_energy_pj`] and [`Backend::idle_power_mw`] — and
//! every one of those estimators is a pure function of `(scenario,
//! DVFS point)`. With a handful of scenarios and a four-rung ladder the
//! whole pricing surface of a backend is a few dozen integers, so the
//! runtime materializes it once at fleet construction as a [`CostTable`]
//! instead of re-deriving analytic latency/energy models on live paths.
//!
//! # Exactness contract
//!
//! A table is a *memo*, never an approximation:
//!
//! * the nominal row holds exactly the live estimator values;
//! * every other row holds exactly `backend.reprice(nominal estimate,
//!   point)` — the same integer `div_round` scaling the settle path
//!   applies to real outputs ([`Backend::reprice`] is pure in `(out,
//!   clock)`, so pricing an estimate once is the same as pricing it per
//!   call);
//! * the idle column holds exactly [`Backend::idle_power_mw`] per point.
//!
//! The property tests at the bottom of this module pin lookup == live
//! recomputation for every scenario × ladder point × shipped backend, so
//! a backend whose estimators drift from its table fails loudly.

use crate::backend::{Backend, BackendOutput};
use crate::control::DvfsPoint;
use crate::energy::EnergyBreakdown;
use crate::error::ServeError;
use crate::router::ShardView;
use defa_model::workload::RequestGenerator;

/// One backend's full pricing surface: modeled cost, energy and idle
/// power for every scenario at every pricing point (see the module
/// docs). Row 0 is always [`DvfsPoint::NOMINAL`].
#[derive(Debug, Clone)]
pub struct CostTable {
    /// The pricing points, nominal first (deduplicated).
    points: Vec<DvfsPoint>,
    n_scenarios: usize,
    /// Modeled service time, `[point × n_scenarios + scenario]`.
    cost_ns: Vec<u64>,
    /// Modeled energy, same layout.
    energy_pj: Vec<u128>,
    /// Modeled idle power per pricing point.
    idle_mw: Vec<u64>,
}

impl CostTable {
    /// Prices every scenario of `gen` at nominal plus each of `points`
    /// (deduplicated, nominal forced first) using `backend`'s live
    /// estimators and repricer.
    ///
    /// # Errors
    ///
    /// Propagates scenario-lookup failures from the generator.
    pub fn build(
        backend: &dyn Backend,
        gen: &RequestGenerator,
        points: &[DvfsPoint],
    ) -> Result<Self, ServeError> {
        let mut pts = vec![DvfsPoint::NOMINAL];
        for &p in points {
            if !pts.contains(&p) {
                pts.push(p);
            }
        }
        let n = gen.scenarios().len();
        let mut cost_ns = Vec::with_capacity(pts.len() * n);
        let mut energy_pj = Vec::with_capacity(pts.len() * n);
        let mut idle_mw = Vec::with_capacity(pts.len());
        for &p in &pts {
            for s in 0..n {
                let wl = gen.scenario(s)?;
                let est_cost = backend.estimate_cost_ns(wl);
                let est_energy = backend.estimate_energy_pj(wl);
                let (c, e) = if p == DvfsPoint::NOMINAL {
                    (est_cost, est_energy)
                } else {
                    // Price the estimate exactly like settle prices real
                    // outputs: through the backend's own repricer.
                    let out = backend.reprice(
                        BackendOutput {
                            digest: 0,
                            cost_ns: est_cost,
                            energy: EnergyBreakdown::from_estimate(est_energy),
                            dense_flops: 0,
                        },
                        p,
                    );
                    (out.cost_ns, out.energy.total_pj())
                };
                cost_ns.push(c);
                energy_pj.push(e);
            }
            idle_mw.push(backend.idle_power_mw(p));
        }
        Ok(CostTable { points: pts, n_scenarios: n, cost_ns, energy_pj, idle_mw })
    }

    /// The pricing points, nominal first.
    pub fn points(&self) -> &[DvfsPoint] {
        &self.points
    }

    /// Number of scenarios per row.
    pub fn scenarios(&self) -> usize {
        self.n_scenarios
    }

    /// Row index of `clock`, if it is a pricing point of this table.
    pub fn point_index(&self, clock: DvfsPoint) -> Option<usize> {
        self.points.iter().position(|&p| p == clock)
    }

    /// Memoized [`Backend::estimate_cost_ns`] repriced to point `point`.
    pub fn cost_ns(&self, point: usize, scenario: usize) -> u64 {
        self.cost_ns[point * self.n_scenarios + scenario]
    }

    /// Memoized [`Backend::estimate_energy_pj`] repriced to point
    /// `point`.
    pub fn energy_pj(&self, point: usize, scenario: usize) -> u128 {
        self.energy_pj[point * self.n_scenarios + scenario]
    }

    /// Memoized [`Backend::idle_power_mw`] at point `point`.
    pub fn idle_mw(&self, point: usize) -> u64 {
        self.idle_mw[point]
    }

    /// The nominal cost row (scenario-indexed), the values
    /// [`Backend::estimate_cost_ns`] returns live.
    pub fn nominal_cost_row(&self) -> &[u64] {
        &self.cost_ns[..self.n_scenarios]
    }

    /// The nominal energy row (scenario-indexed), the values
    /// [`Backend::estimate_energy_pj`] returns live.
    pub fn nominal_energy_row(&self) -> &[u128] {
        &self.energy_pj[..self.n_scenarios]
    }
}

/// Per-scenario and per-shard scheduling/routing estimates, computed once
/// per run from the backends' analytic models.
pub(crate) struct Estimates {
    /// Fleet-mean service-time estimate per scenario (what queued
    /// requests carry for SJF).
    pub(crate) scenario_cost_ns: Vec<u64>,
    /// Per-shard rating of one full batch: the dispatch overhead plus
    /// `max_batch` scenario-mean prefills (what routers see).
    pub(crate) shard_batch_ns: Vec<u64>,
    /// Scenario-mean energy estimate per shard (what routers see).
    pub(crate) shard_energy_pj: Vec<u128>,
    /// Scenario-mean prefill-phase estimate per shard
    /// ([`Backend::estimate_prefill_ns`]) — the phase split routers see.
    pub(crate) shard_prefill_ns: Vec<u64>,
    /// Scenario-mean decode-step estimate per shard
    /// ([`Backend::estimate_decode_ns`]).
    pub(crate) shard_decode_ns: Vec<u64>,
}

impl Estimates {
    /// Folds the fleet's memoized nominal pricing rows into the
    /// per-scenario and per-shard means the policies consume. Nominal
    /// table rows are exactly the live estimator outputs, so these are
    /// the same integers as folding the estimators directly — including
    /// the phase split, whose trait contract defines prefill as the full
    /// nominal cost and one decode step as `1/DECODE_COST_DIV` of it
    /// (floored at 1 ns). Folding rows instead of calling the live
    /// estimators keeps backend model evaluation out of the serve path.
    pub(crate) fn from_tables(tables: &[CostTable], overhead_ns: u64, max_batch: usize) -> Self {
        let n_scen = tables[0].scenarios();
        let scenario_cost_ns = (0..n_scen)
            .map(|s| {
                let sum: u128 = tables.iter().map(|t| t.nominal_cost_row()[s] as u128).sum();
                (sum / tables.len() as u128) as u64
            })
            .collect();
        let shard_energy_pj = tables
            .iter()
            .map(|t| t.nominal_energy_row().iter().sum::<u128>() / n_scen as u128)
            .collect();
        let mut shard_prefill_ns = Vec::with_capacity(tables.len());
        let mut shard_decode_ns = Vec::with_capacity(tables.len());
        for t in tables {
            let mut prefill: u128 = 0;
            let mut decode: u128 = 0;
            for &cost in t.nominal_cost_row() {
                prefill += cost as u128;
                decode += (cost / crate::backend::DECODE_COST_DIV).max(1) as u128;
            }
            shard_prefill_ns.push((prefill / n_scen.max(1) as u128) as u64);
            shard_decode_ns.push((decode / n_scen.max(1) as u128) as u64);
        }
        let shard_batch_ns = shard_prefill_ns
            .iter()
            .map(|&p| overhead_ns.saturating_add(p.saturating_mul(max_batch as u64)))
            .collect();
        Estimates {
            scenario_cost_ns,
            shard_batch_ns,
            shard_energy_pj,
            shard_prefill_ns,
            shard_decode_ns,
        }
    }

    /// Rebuilds the routable shard views — one per *active* shard, in
    /// shard order — into the reused `views` buffer.
    #[inline(always)]
    pub(crate) fn fill_views(
        &self,
        views: &mut Vec<ShardView>,
        active: &[bool],
        shard_free: &[u64],
    ) {
        views.clear();
        for (shard, _) in active.iter().enumerate().filter(|(_, a)| **a) {
            views.push(ShardView {
                shard,
                free_ns: shard_free[shard],
                est_batch_ns: self.shard_batch_ns[shard],
                est_energy_pj: self.shard_energy_pj[shard],
                est_prefill_ns: self.shard_prefill_ns[shard],
                est_decode_ns: self.shard_decode_ns[shard],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::control::DVFS_LADDER;
    use defa_model::MsdaConfig;

    /// The memoization contract: every table entry equals an independent
    /// live recomputation — all 9 grid scenarios × every ladder point ×
    /// all three analytic backends.
    #[test]
    fn table_matches_live_estimators_everywhere() {
        let gen = RequestGenerator::grid(&MsdaConfig::tiny(), 7).unwrap();
        assert_eq!(gen.scenarios().len(), 9, "grid is the 9-scenario sweep");
        for kind in [BackendKind::Dense, BackendKind::Pruned, BackendKind::Accelerator] {
            let backend = kind.build();
            let table = CostTable::build(backend.as_ref(), &gen, &DVFS_LADDER).unwrap();
            assert_eq!(table.points()[0], DvfsPoint::NOMINAL, "nominal row first");
            assert_eq!(table.scenarios(), 9);
            for (pi, &p) in table.points().iter().enumerate() {
                assert_eq!(
                    table.idle_mw(pi),
                    backend.idle_power_mw(p),
                    "{}: idle power at {}",
                    backend.name(),
                    p.label()
                );
                for s in 0..9 {
                    let wl = gen.scenario(s).unwrap();
                    let est_cost = backend.estimate_cost_ns(wl);
                    let est_energy = backend.estimate_energy_pj(wl);
                    let (want_cost, want_energy) = if p == DvfsPoint::NOMINAL {
                        (est_cost, est_energy)
                    } else {
                        let out = backend.reprice(
                            BackendOutput {
                                digest: 0,
                                cost_ns: est_cost,
                                energy: EnergyBreakdown::from_estimate(est_energy),
                                dense_flops: 0,
                            },
                            p,
                        );
                        (out.cost_ns, out.energy.total_pj())
                    };
                    assert_eq!(
                        table.cost_ns(pi, s),
                        want_cost,
                        "{}: cost of scenario {s} at {}",
                        backend.name(),
                        p.label()
                    );
                    assert_eq!(
                        table.energy_pj(pi, s),
                        want_energy,
                        "{}: energy of scenario {s} at {}",
                        backend.name(),
                        p.label()
                    );
                }
            }
        }
    }

    /// Nominal-only tables (the uncontrolled fast path) have one row and
    /// duplicate points collapse.
    #[test]
    fn points_are_deduplicated_with_nominal_first() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 7).unwrap();
        let backend = BackendKind::Accelerator.build();
        let table = CostTable::build(backend.as_ref(), &gen, &[]).unwrap();
        assert_eq!(table.points(), &[DvfsPoint::NOMINAL]);

        let dup = [DvfsPoint::NOMINAL, DVFS_LADDER[1], DVFS_LADDER[1]];
        let table = CostTable::build(backend.as_ref(), &gen, &dup).unwrap();
        assert_eq!(table.points(), &[DvfsPoint::NOMINAL, DVFS_LADDER[1]]);
        assert_eq!(table.point_index(DVFS_LADDER[1]), Some(1));
        assert_eq!(table.point_index(DVFS_LADDER[3]), None);
    }

    /// GPU-modeled backends reprice as the identity: their non-nominal
    /// rows equal the nominal row (clock-independent pricing).
    #[test]
    fn identity_repricers_fill_constant_rows() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 7).unwrap();
        let backend = BackendKind::Dense.build();
        let table = CostTable::build(backend.as_ref(), &gen, &DVFS_LADDER).unwrap();
        for pi in 1..table.points().len() {
            for s in 0..table.scenarios() {
                assert_eq!(table.cost_ns(pi, s), table.cost_ns(0, s));
                assert_eq!(table.energy_pj(pi, s), table.energy_pj(0, s));
            }
        }
    }
}
