//! `feedback-closed`: one op is one complete QD session by one cooperative
//! oracle user, in a closed loop: the next session starts when the previous
//! one has its answer. A session runs `FeedbackStepper::step_round` once per
//! feedback round, then `try_execute_subqueries` and `assemble_outcome`,
//! over an insertion-built monolithic RFS at the engine's default thread
//! count. A round is one session for each of the 11 standard queries and
//! for `RANDOM_QUERIES` random 1–3-category queries (Figs. 10–11) drawn
//! afresh for every round.

use crate::oracle;
use crate::stats::{Phase, Timer, Took};
use crate::{mix, trace, Ctx, Opts, Workload, CORPUS_SEED};
use qd_core::session::{
    assemble_outcome, try_execute_subqueries, try_run_session, FeedbackRounds, FeedbackStepper,
    QdConfig, ServedOutcome,
};
use qd_core::{RfsConfig, RfsStructure, SimulatedUser};
use qd_corpus::queries::{standard_queries, QueryGroup};
use qd_corpus::{Corpus, CorpusConfig, QuerySpec};
use qd_features::FEATURE_DIM;
use qd_index::RStarTree;
use std::collections::BTreeSet;

/// Images in the corpus.
pub const IMAGES: usize = 6_000;
/// Random queries per round, beside the 11 standard ones.
pub const RANDOM_QUERIES: usize = 53;
/// Traced runs replay every this-many-th session for counters and time it
/// at nproc workers and as one global k-NN: every session would leave the
/// traced half too few ops to measure.
const REFERENCE_EVERY: usize = 4;

pub struct Feedback {
    corpus: Corpus,
    rfs: RfsStructure,
    standard: Vec<QuerySpec>,
    seed: u64,
    round_no: u64,
}

/// `n` random queries over 1–3 distinct categories each.
fn random_queries(corpus: &Corpus, n: usize, seed: u64) -> Vec<QuerySpec> {
    let taxonomy = corpus.taxonomy();
    let all: Vec<_> = taxonomy.ids().collect();
    (0..n as u64)
        .map(|i| {
            let h = mix(seed ^ mix(0xFEED ^ i));
            let groups = 1 + (h % 3) as usize;
            let mut picked = Vec::new();
            let mut j = 0u64;
            while picked.len() < groups {
                let c = all[(mix(h ^ j) % all.len() as u64) as usize];
                if !picked.contains(&c) {
                    picked.push(c);
                }
                j += 1;
            }
            QuerySpec {
                name: format!("random-{i}"),
                groups: picked
                    .into_iter()
                    .map(|c| QueryGroup {
                        name: taxonomy.name(c).to_string(),
                        members: vec![c],
                    })
                    .collect(),
            }
        })
        .collect()
}

impl Feedback {
    /// Runs one session; returns its outcome, feedback product, and time.
    fn session(
        &self,
        query: &QuerySpec,
        k: usize,
        user_seed: u64,
        cfg: &QdConfig,
        ctx: &mut Ctx,
    ) -> (Option<ServedOutcome>, FeedbackRounds, Took) {
        let mut user = SimulatedUser::oracle(query, user_seed);
        let timer = Timer::start();
        let (served, rounds) = trace::op("session.op", || {
            let mut stepper = FeedbackStepper::new(&self.rfs, self.corpus.labels(), cfg.clone());
            while !trace::span("session.round", || stepper.step_round(&mut user)) {}
            let rounds = stepper.finish();
            let exec = trace::span("session.final", || {
                try_execute_subqueries(&self.corpus, &self.rfs, &rounds.final_marks, k, cfg)
            });
            let served = exec.map(|e| {
                trace::span("session.assemble", || {
                    assemble_outcome(&self.corpus, query, cfg, &rounds, e)
                })
            });
            (served, rounds)
        });
        let took = timer.stop();
        let served = match served {
            Ok(s) => Some(s),
            Err(e) => {
                ctx.fail(format!("session {}: {e}", query.name));
                None
            }
        };
        (served, rounds, took)
    }

    /// Checks one session's answer against the reference.
    fn check(
        &self,
        query: &QuerySpec,
        k: usize,
        served: &ServedOutcome,
        rounds: &FeedbackRounds,
        ctx: &mut Ctx,
    ) {
        let name = &query.name;
        let out = match served {
            ServedOutcome::Complete(o) => o,
            ServedOutcome::Degraded { report, .. } => {
                return ctx.fail(format!(
                    "session {name}: degraded without a budget: {report:?}"
                ));
            }
        };
        let results: BTreeSet<usize> = out.results.iter().copied().collect();
        ctx.check(results.len() == out.results.len(), || {
            format!("session {name}: repeated result ids")
        });
        ctx.check(out.results.len() <= k, || {
            format!("session {name}: {} results for k = {k}", out.results.len())
        });
        ctx.check(out.results.iter().all(|&id| id < self.corpus.len()), || {
            format!("session {name}: result id out of range")
        });
        let features = self.corpus.features();
        for g in &out.groups {
            let Some((_, marks)) = rounds.final_marks.iter().find(|(n, _)| *n == g.home) else {
                ctx.fail(format!("session {name}: a result group has no subquery"));
                continue;
            };
            let pts: Vec<&[f32]> = marks.iter().map(|&m| features[m].as_slice()).collect();
            let c = oracle::centroid(&pts);
            let mut farthest = 0.0f64;
            for &(id, score) in &g.images {
                let d = oracle::dist(&features[id], &c);
                ctx.check((d - f64::from(score)).abs() <= oracle::tol(d), || {
                    format!("session {name}: image {id} scored {score}, reference distance {d}")
                });
                farthest = farthest.max(d);
            }
            for id in oracle::subtree_ids(self.rfs.tree(), g.home) {
                let id = id as usize;
                let d = oracle::dist(&features[id], &c);
                ctx.check(d >= farthest - oracle::tol(farthest) || results.contains(&id), || {
                    format!("session {name}: image {id} at {d} in the home subtree is missing, the group reaches {farthest}")
                });
            }
        }
        let final_precision = out.round_trace.last().and_then(|r| r.precision);
        let want = oracle::precision(&out.results, |id| self.corpus.is_relevant(id, query));
        ctx.check(final_precision == Some(want), || {
            format!("session {name}: precision {final_precision:?}, reference {want}")
        });
    }
}

impl Workload for Feedback {
    fn setup(opts: &Opts, _ctx: &mut Ctx) -> Self {
        let corpus = trace::span("corpus.build", || {
            Corpus::build(&CorpusConfig {
                size: IMAGES,
                image_size: 32,
                seed: CORPUS_SEED,
                filler_count: 121,
                with_viewpoints: false,
            })
        });
        let config = RfsConfig::paper();
        let mut tree = RStarTree::new(config.tree_config(FEATURE_DIM));
        for (id, v) in corpus.features().iter().enumerate() {
            trace::span("index.insert", || tree.insert(v.clone(), id as u64));
        }
        let rfs = trace::span("rfs.build_on", || {
            RfsStructure::build_on(tree, corpus.features(), &config)
        });
        Feedback {
            standard: standard_queries(corpus.taxonomy()),
            corpus,
            rfs,
            seed: opts.seed,
            round_no: 0,
        }
    }

    fn warm_up(&mut self, ctx: &mut Ctx) {
        let mut scratch = Phase::default();
        self.round(&mut scratch, ctx);
    }

    fn round(&mut self, phase: &mut Phase, ctx: &mut Ctx) {
        self.round_no += 1;
        ctx.figures
            .insert("index.height", self.rfs.tree().height() as f64);
        ctx.figures
            .insert("index.nodes", self.rfs.tree().node_count() as f64);
        let mut queries = self.standard.clone();
        queries.extend(random_queries(
            &self.corpus,
            RANDOM_QUERIES,
            mix(self.seed ^ mix(self.round_no)),
        ));
        for (qi, query) in queries.iter().enumerate() {
            let k = self.corpus.ground_truth(query).len().clamp(1, 100);
            let h = mix(self.seed ^ mix(self.round_no << 16 | qi as u64));
            let cfg = QdConfig {
                seed: mix(h ^ 1),
                ..QdConfig::default()
            };
            let (served, rounds, took) = self.session(query, k, mix(h ^ 2), &cfg, ctx);
            phase.op(took, true);
            let Some(served) = served else {
                phase.failed += 1;
                continue;
            };
            self.check(query, k, &served, &rounds, ctx);
            if trace::enabled() && qi.is_multiple_of(REFERENCE_EVERY) {
                let out = served.outcome();
                ctx.sample("session.subqueries.mean", out.subquery_count as f64);
                // The engine's qd-obs counters, from an untimed replay of the
                // same session (same user seed, same work): recording them
                // inside the timed op would inflate every span.
                let (replayed, t) = qd_obs::with_recorder(|| {
                    let mut user = SimulatedUser::oracle(query, mix(h ^ 2));
                    try_run_session(&self.corpus, &self.rfs, query, &mut user, k, &cfg)
                });
                let same = replayed.is_ok_and(|r| r.outcome().results == out.results);
                ctx.check(same, || {
                    format!("session {}: a replay answers differently", query.name)
                });
                let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
                ctx.sample("knn.distances.mean", c(qd_obs::ctr::KNN_DISTANCE));
                ctx.sample("knn.nodes.mean", c(qd_obs::ctr::KNN_FRONTIER));
                ctx.sample("session.displays.mean", c(qd_obs::ctr::SESSION_DISPLAYS));
                trace::attach(trace::last_op(), || {
                    // The same final round at the default worker count: the
                    // subquery fan-out's cost.
                    let one = trace::span("runtime.final_nproc", || {
                        qd_runtime::with_threads(crate::nproc(), || {
                            try_execute_subqueries(
                                &self.corpus,
                                &self.rfs,
                                &rounds.final_marks,
                                k,
                                &cfg,
                            )
                        })
                    });
                    let same = one.as_ref().is_ok_and(|e| e.results == out.results);
                    ctx.check(same, || {
                        format!(
                            "session {}: {} workers answer differently",
                            query.name,
                            crate::nproc()
                        )
                    });
                    // Fig. 10's comparator: one global k-NN at the root.
                    let marks: Vec<&[f32]> = rounds
                        .final_marks
                        .iter()
                        .flat_map(|(_, m)| m.iter().map(|&i| self.corpus.feature(i)))
                        .collect();
                    if !marks.is_empty() {
                        let c: Vec<f32> =
                            oracle::centroid(&marks).iter().map(|&x| x as f32).collect();
                        let tree = self.rfs.tree();
                        trace::span("index.global_knn", || {
                            tree.knn_in_budgeted(tree.root(), &c, k, None)
                        });
                    }
                });
            }
        }
    }
}
