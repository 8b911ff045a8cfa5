//! `serve-update`: one op is one wave of `WAVE` tenants of the
//! four-scenario `LoadPlan` mix, arriving together and driven to their
//! answers by `Server::run` over the current `ShardPublisher` snapshot of a
//! `SHARDS`-shard `ShardSet`. After every `CADENCE` waves one live update is
//! applied and timed apart from the waves: it inserts a held-back image or
//! deletes a live one (`ShardSet::insert`/`remove`), refreshes the
//! representatives (`rebuild_with_refresh`), and publishes the snapshot.

use crate::oracle;
use crate::stats::{median, us, Phase, Timer, Took};
use crate::{mix, trace, unit, Ctx, Opts, Workload, CORPUS_SEED};
use qd_core::session::{try_run_session, ServedOutcome};
use qd_core::{RfsConfig, RfsStructure};
use qd_corpus::{Corpus, CorpusConfig};
use qd_features::FEATURE_DIM;
use qd_index::KnnIndex;
use qd_serve::{LoadConfig, LoadPlan, ServeConfig, Server, SessionOutcome};
use qd_shard::{ShardConfig, ShardPublisher, ShardSet};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Images in the corpus, live and held back.
pub const IMAGES: usize = 3_000;
/// Images held back at set-up, inserted by live updates.
pub const HELD_BACK: usize = 300;
/// Shards.
pub const SHARDS: usize = 4;
/// Tenants per wave.
pub const WAVE: usize = 16;
/// Waves between two live updates.
pub const CADENCE: usize = 128;
/// Every this-many-th wave is also re-run tenant-alone and probed against
/// the oracle, and, in traced runs, served again at nproc workers.
const REFERENCE_EVERY: u64 = 8;
/// Warm-up waves.
const WARM_UP_WAVES: usize = 4;

pub struct Serve {
    corpus: Arc<Corpus>,
    config: RfsConfig,
    publisher: ShardPublisher,
    /// Ids not in the published snapshot, next to be inserted first.
    absent: VecDeque<u64>,
    /// Ids deleted by an update and not inserted since.
    deleted: BTreeSet<u64>,
    seed: u64,
    wave_no: u64,
    update_no: u64,
    update_us: Vec<f64>,
}

impl Serve {
    /// Runs one wave; returns its time and whether every tenant ended
    /// Complete or Degraded.
    fn wave(&mut self, ctx: &mut Ctx) -> (Took, bool) {
        self.wave_no += 1;
        let snapshot = self.publisher.snapshot();
        let server = Server::new(
            Arc::clone(&self.corpus),
            Arc::clone(&snapshot),
            ServeConfig {
                queue_capacity: WAVE,
                ..ServeConfig::default()
            },
        );
        let plan = LoadPlan::generate(
            &self.corpus,
            &LoadConfig {
                users: WAVE,
                seed: mix(self.seed ^ mix(self.wave_no)),
                arrivals_per_tick: WAVE as u64,
                ..LoadConfig::default()
            },
        );
        let timer = Timer::start();
        let report = trace::op("serve.wave", || server.run(&plan));
        let took = timer.stop();

        let tree = snapshot.tree();
        let mut ok = true;
        for (spec, s) in plan.specs.iter().zip(&report.sessions) {
            let out = match &s.outcome {
                SessionOutcome::Complete(o) | SessionOutcome::Degraded { outcome: o, .. } => o,
                other => {
                    ok = false;
                    eprintln!(
                        "wave {}: tenant {} ended {:?}",
                        self.wave_no,
                        s.id,
                        other.state()
                    );
                    continue;
                }
            };
            let ids: BTreeSet<usize> = out.results.iter().copied().collect();
            ctx.check(
                ids.len() == out.results.len() && out.results.len() <= spec.k,
                || {
                    format!(
                        "wave {}: tenant {} has repeated or too many results",
                        self.wave_no, s.id
                    )
                },
            );
            for &id in &out.results {
                ctx.check(
                    id < self.corpus.len() && tree.contains_image(id as u64),
                    || {
                        format!(
                            "wave {}: tenant {} returned image {id}, absent from its snapshot",
                            self.wave_no, s.id
                        )
                    },
                );
                ctx.check(!self.deleted.contains(&(id as u64)), || {
                    format!("wave {}: deleted image {id} came back", self.wave_no)
                });
            }
            if trace::enabled() {
                let c = |name: &str| s.trace.counters.get(name).copied().unwrap_or(0) as f64;
                ctx.sample("knn.distances.mean", c(qd_obs::ctr::KNN_DISTANCE));
                ctx.sample("knn.nodes.mean", c(qd_obs::ctr::KNN_FRONTIER));
                ctx.sample("session.displays.mean", c(qd_obs::ctr::SESSION_DISPLAYS));
                ctx.sample("session.subqueries.mean", out.subquery_count as f64);
            }
        }
        // Every REFERENCE_EVERY-th wave is also checked against references
        // that cost as much as the wave itself.
        if self.wave_no.is_multiple_of(REFERENCE_EVERY) {
            // Isolation (DESIGN.md §13): one tenant without a deadline, re-run
            // alone on the same snapshot, gets the answer it got in the wave.
            let solo: Vec<_> = plan
                .specs
                .iter()
                .zip(&report.sessions)
                .filter(|(sp, _)| sp.deadline.is_none())
                .collect();
            if !solo.is_empty() {
                let (spec, s) = solo[(self.wave_no as usize) % solo.len()];
                let alone = try_run_session(
                    &self.corpus,
                    &snapshot,
                    &spec.query,
                    &mut spec.user(),
                    spec.k,
                    &spec.cfg,
                );
                let wave_results = match &s.outcome {
                    SessionOutcome::Complete(o) | SessionOutcome::Degraded { outcome: o, .. } => {
                        Some(&o.results)
                    }
                    _ => None,
                };
                let same =
                    matches!((&alone, wave_results), (Ok(a), Some(w)) if &a.outcome().results == w);
                ctx.check(same, || {
                    format!(
                        "wave {}: tenant {} answers differently alone",
                        self.wave_no, s.id
                    )
                });
                // No deadline, no budget, no fault: nothing may degrade it.
                ctx.check(matches!(alone, Ok(ServedOutcome::Complete(_))), || {
                    format!(
                        "wave {}: tenant {} without a deadline did not complete alone",
                        self.wave_no, s.id
                    )
                });
            }
            // Scatter-gather k-NN at the synthetic root against the reference.
            let h = mix(self.seed ^ mix(0x5CA7 ^ self.wave_no));
            let live: Vec<u64> = (0..self.corpus.len() as u64)
                .filter(|&id| tree.contains_image(id))
                .collect();
            let base = self
                .corpus
                .feature(live[(h % live.len() as u64) as usize] as usize);
            let q: Vec<f32> = base
                .iter()
                .enumerate()
                .map(|(d, &x)| x + (unit(mix(h ^ d as u64)) - 0.5) as f32)
                .collect();
            let qw = oracle::wide(&q);
            let got = trace::attach(trace::last_op(), || {
                trace::span("shard.knn", || {
                    tree.knn_in_budgeted(tree.root(), &q, 10, None)
                })
            });
            let want = oracle::knn(
                live.iter()
                    .map(|&id| (id, self.corpus.feature(id as usize))),
                &qw,
                10,
            );
            let point_of = |id: u64| {
                (tree.contains_image(id)).then(|| oracle::wide(self.corpus.feature(id as usize)))
            };
            if let Err(e) = oracle::check_knn(&got.neighbors, &want, point_of, &qw) {
                ctx.fail(format!("wave {}: sharded root 10-NN: {e}", self.wave_no));
            }
        }
        if trace::enabled() {
            ctx.sample("serve.ticks_per_wave.mean", report.ticks as f64);
            ctx.sample(
                "serve.tick_us.mean",
                us(took.wall) / report.ticks.max(1) as f64,
            );
        }
        if trace::enabled() && self.wave_no.is_multiple_of(REFERENCE_EVERY) {
            trace::attach(trace::last_op(), || {
                let one = trace::span("serve.wave_nproc", || {
                    qd_runtime::with_threads(crate::nproc(), || server.run(&plan))
                });
                let same = one
                    .sessions
                    .iter()
                    .zip(&report.sessions)
                    .all(|(a, b)| a.fingerprint() == b.fingerprint());
                ctx.check(same, || {
                    format!(
                        "wave {}: {} workers serve it differently",
                        self.wave_no,
                        crate::nproc()
                    )
                });
            });
        }
        (took, ok)
    }

    /// Applies one live update, alternately an insert and a delete.
    fn update(&mut self, ctx: &mut Ctx) {
        self.update_no += 1;
        let features = self.corpus.features();
        let insert = self.update_no % 2 == 1;
        let id = if insert {
            self.absent.pop_front().expect("an absent image to insert")
        } else {
            let snap = self.publisher.snapshot();
            let mut h = mix(self.seed ^ mix(0xDE1 ^ self.update_no));
            loop {
                let id = h % self.corpus.len() as u64;
                if snap.tree().contains_image(id) {
                    break id;
                }
                h = mix(h);
            }
        };
        let start = Instant::now();
        let published = trace::span("serve.update", || {
            let old = self.publisher.snapshot();
            let set = if insert {
                trace::span("shard.insert", || old.tree().insert(features, id))
            } else {
                trace::span("shard.remove", || old.tree().remove(features, id))
            };
            let next = trace::span("rfs.refresh", || {
                old.rebuild_with_refresh(set, features, &self.config)
            });
            trace::span("shard.publish", || self.publisher.publish(next))
        });
        self.update_us.push(us(start.elapsed()));
        let snap = match published {
            Ok(s) => s,
            Err(e) => return ctx.fail(format!("update {}: {e}", self.update_no)),
        };
        ctx.check(Arc::ptr_eq(&snap, &self.publisher.snapshot()), || {
            "the published snapshot is not visible".into()
        });
        let tree = snap.tree();
        let nearest = tree
            .knn_in_budgeted(tree.root(), &features[id as usize], 1, None)
            .neighbors;
        if insert {
            self.deleted.remove(&id);
            ctx.check(nearest.first().is_some_and(|n| n.id == id), || {
                format!(
                    "update {}: inserted image {id} is not its own nearest neighbor: {nearest:?}",
                    self.update_no
                )
            });
        } else {
            self.deleted.insert(id);
            self.absent.push_back(id);
            ctx.check(
                !tree.contains_image(id) && nearest.first().is_some_and(|n| n.id != id),
                || {
                    format!(
                        "update {}: deleted image {id} is still found",
                        self.update_no
                    )
                },
            );
        }
    }
}

impl Workload for Serve {
    fn setup(opts: &Opts, ctx: &mut Ctx) -> Self {
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
        let live = IMAGES - HELD_BACK;
        let set = trace::span("shard.build", || {
            ShardSet::build(
                &corpus.features()[..live],
                config.tree_config(FEATURE_DIM),
                ShardConfig::new(SHARDS, CORPUS_SEED),
            )
        });
        let rfs = trace::span("rfs.build_on", || {
            RfsStructure::build_on(set, corpus.features(), &config)
        });
        let path = ctx.tmp.join("serve.qds");
        let saved = trace::span("persist.qds_save", || qd_shard::persist::save(&rfs, &path));
        let loaded = trace::span("persist.qds_load", || qd_shard::persist::load(&path));
        let rfs = match (saved, loaded) {
            (Ok(()), Ok(copy)) => {
                ctx.check(
                    qd_shard::persist::to_bytes(&copy) == qd_shard::persist::to_bytes(&rfs),
                    || "the loaded QDS1 copy differs from the saved structure".into(),
                );
                copy
            }
            (s, l) => {
                ctx.fail(format!(
                    "QDS1 round trip failed: save {s:?}, load {:?}",
                    l.err()
                ));
                rfs
            }
        };
        let _ = std::fs::remove_file(&path);
        ctx.figures
            .insert("index.height", rfs.tree().height() as f64);
        ctx.figures
            .insert("index.nodes", rfs.tree().node_count() as f64);
        Serve {
            corpus: Arc::new(corpus),
            config,
            publisher: ShardPublisher::new(rfs),
            absent: (live as u64..IMAGES as u64).collect(),
            deleted: BTreeSet::new(),
            seed: opts.seed,
            wave_no: 0,
            update_no: 0,
            update_us: Vec::new(),
        }
    }

    fn warm_up(&mut self, ctx: &mut Ctx) {
        for _ in 0..WARM_UP_WAVES {
            self.wave(ctx);
        }
        self.update(ctx);
        self.update_us.clear();
    }

    fn round(&mut self, phase: &mut Phase, ctx: &mut Ctx) {
        for _ in 0..CADENCE {
            let (took, ok) = self.wave(ctx);
            phase.op(took, true);
            if !ok {
                phase.failed += 1;
            }
        }
        self.update(ctx);
        ctx.info.insert("update_p50_us", median(&self.update_us));
        ctx.info.insert("updates", self.update_us.len() as f64);
    }
}
