//! `ingest`: one op renders one image, extracts and normalizes its
//! features, and inserts it into one monolithic R*-tree, on one thread.
//! A round ingests the whole corpus into a fresh tree, then decorates it
//! with representatives (`RfsStructure::build_on`) and saves and loads it
//! as QDR2. Every `REUPLOAD_EVERY`-th op re-uploads an exact copy of an
//! earlier image under a new id.
//!
//! The corpus and the op order do not depend on `--seed`: a re-upload op
//! fails when the finished tree's exact 1-NN at its vector is not the
//! lowest id holding that vector (the engine breaks distance ties in heap
//! order), and the count of such ops is a property of the tree layout,
//! which must be the same in every run. `--seed` picks the probe points of
//! the exact k-NN checks.

use crate::oracle;
use crate::stats::{Phase, Timer};
use crate::{mix, trace, unit, Ctx, Opts, Workload, CORPUS_SEED};
use qd_core::{RfsConfig, RfsStructure};
use qd_corpus::{Corpus, CorpusConfig};
use qd_features::{FeatureExtractor, FEATURE_DIM};
use qd_index::RStarTree;
use std::time::Duration;

/// Images in the corpus (originals per round).
pub const IMAGES: usize = 9_000;
/// Every this-many-th op is a re-upload.
pub const REUPLOAD_EVERY: usize = 30;
/// Random probe points of the exact root k-NN check.
const PROBES: usize = 40;
/// Ops of the warm-up, ingested into a throw-away tree.
const WARM_UP_OPS: usize = 1_000;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Ingest corpus image `id` under its own id.
    Original(usize),
    /// Re-upload corpus image `of` under the next free id.
    Reupload { of: usize },
}

/// What one pass of ingest ops leaves behind.
struct Ingested {
    tree: RStarTree,
    /// Feature vector of every ingested id, indexed by id.
    table: Vec<Vec<f32>>,
    /// `(copy id, source id)` of every re-upload.
    copies: Vec<(u64, usize)>,
    /// Summed CPU time of the ops.
    busy: Duration,
}

pub struct Ingest {
    corpus: Corpus,
    extractor: FeatureExtractor,
    config: RfsConfig,
    ops: Vec<Op>,
    probes: Vec<Vec<f64>>,
}

/// The fixed op list: originals in id order, a re-upload of an earlier
/// image after every `REUPLOAD_EVERY - 1` originals.
fn op_list() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut originals = 0usize;
    while originals < IMAGES {
        if (ops.len() + 1) % REUPLOAD_EVERY == 0 {
            let of = (mix(CORPUS_SEED ^ ops.len() as u64) % originals as u64) as usize;
            ops.push(Op::Reupload { of });
        } else {
            ops.push(Op::Original(originals));
            originals += 1;
        }
    }
    ops
}

impl Ingest {
    /// Re-derives image `src`'s normalized feature vector.
    fn derive(&self, src: usize) -> Vec<f32> {
        let img = trace::span("imagery.render", || self.corpus.render_image(src));
        trace::span("features.extract", || {
            let raw = self.extractor.extract(&img);
            self.corpus.normalizer().transform(&raw)
        })
    }

    /// Ingests `ops` into a fresh tree.
    fn ingest(&self, ops: &[Op], mut phase: Option<&mut Phase>, ctx: &mut Ctx) -> Ingested {
        let mut tree = RStarTree::new(self.config.tree_config(FEATURE_DIM));
        let mut table: Vec<Vec<f32>> = Vec::with_capacity(ops.len());
        table.resize(IMAGES, Vec::new());
        let mut copies = Vec::new();
        let mut busy = Duration::ZERO;
        for &op in ops {
            let (id, src) = match op {
                Op::Original(i) => (i as u64, i),
                Op::Reupload { of } => ((IMAGES + copies.len()) as u64, of),
            };
            let timer = Timer::start();
            let v = trace::op("ingest.op", || {
                let v = self.derive(src);
                trace::span("index.insert", || tree.insert(v.clone(), id));
                v
            });
            let took = timer.stop();
            busy += took.cpu;
            if let Some(p) = phase.as_deref_mut() {
                p.op(took, false);
            }
            let want = self.corpus.feature(src);
            let drift = v
                .iter()
                .zip(want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            ctx.check(drift <= 1e-4, || {
                format!("image {src}: re-derived features differ from the corpus by {drift}")
            });
            match op {
                Op::Original(i) => table[i] = v,
                Op::Reupload { of } => {
                    copies.push((id, of));
                    table.push(v);
                }
            }
        }
        Ingested {
            tree,
            table,
            copies,
            busy,
        }
    }
}

impl Workload for Ingest {
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
        // Probe points: a seeded corpus vector moved by up to ±0.5 per
        // dimension, so probes fall between images and never tie.
        let probes = (0..PROBES as u64)
            .map(|i| {
                let h = mix(opts.seed ^ mix(i));
                let base = corpus.feature((h % IMAGES as u64) as usize);
                base.iter()
                    .enumerate()
                    .map(|(d, &x)| f64::from(x) + unit(mix(h ^ d as u64)) - 0.5)
                    .collect()
            })
            .collect();
        Ingest {
            corpus,
            extractor: FeatureExtractor::new(),
            config: RfsConfig::paper(),
            ops: op_list(),
            probes,
        }
    }

    fn warm_up(&mut self, ctx: &mut Ctx) {
        let ops = self.ops[..WARM_UP_OPS].to_vec();
        self.ingest(&ops, None, ctx);
    }

    fn round(&mut self, phase: &mut Phase, ctx: &mut Ctx) {
        let ops = std::mem::take(&mut self.ops);
        let Ingested {
            tree,
            table,
            copies,
            busy,
        } = self.ingest(&ops, Some(phase), ctx);
        self.ops = ops;
        let path = ctx.tmp.join("ingest.qdr");
        let timer = Timer::start();
        let rfs = trace::span("rfs.build_on", || {
            RfsStructure::build_on(tree, &table, &self.config)
        });
        let saved = trace::span("persist.qdr_save", || rfs.save(&path));
        let loaded = trace::span("persist.qdr_load", || RfsStructure::load(&path));
        let closing = timer.stop();
        phase.note_heap(&closing);
        phase.rate(self.ops.len() as f64 / (busy + closing.cpu).as_secs_f64());
        ctx.figures
            .insert("index.height", rfs.tree().height() as f64);
        ctx.figures
            .insert("index.nodes", rfs.tree().node_count() as f64);

        let tree = rfs.tree();
        let root = tree.root();
        // Every id sits in exactly one leaf.
        let mut ids = oracle::subtree_ids(tree, root);
        ids.sort_unstable();
        ctx.check(ids.iter().copied().eq(0..table.len() as u64), || {
            format!(
                "leaves hold {} ids, {} ingested, or some id twice",
                ids.len(),
                table.len()
            )
        });
        // Representatives lie inside their subtree.
        for n in tree.node_ids() {
            let mut inside = oracle::subtree_ids(tree, n);
            inside.sort_unstable();
            for &r in rfs.representatives(n) {
                ctx.check(inside.binary_search(&(r as u64)).is_ok(), || {
                    format!(
                        "representative {r} of node {} lies outside its subtree",
                        n.index()
                    )
                });
            }
        }
        // Exact root k-NN at the probes equals the reference.
        let items = || {
            table
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u64, v.as_slice()))
        };
        let point_of = |id: u64| table.get(id as usize).map(|v| oracle::wide(v));
        let mut answers = Vec::new();
        for q in &self.probes {
            let qf: Vec<f32> = q.iter().map(|&x| x as f32).collect();
            let qw = oracle::wide(&qf);
            for k in [1, 10] {
                let got = tree.knn_in_budgeted(root, &qf, k, None).neighbors;
                let want = oracle::knn(items(), &qw, k);
                if let Err(e) = oracle::check_knn(&got, &want, point_of, &qw) {
                    ctx.fail(format!("root {k}-NN at a probe: {e}"));
                }
                answers.push((qf.clone(), k, got));
            }
        }
        // Re-upload ops: the exact 1-NN at the copied vector must be the
        // lowest id that holds that vector.
        for &(copy, src) in &copies {
            let v = &table[copy as usize];
            let lowest = table.iter().position(|w| w == v).map(|i| i as u64);
            let got = tree.knn_in_budgeted(root, v, 1, None).neighbors;
            ctx.check(lowest == Some(src as u64), || {
                format!("copy {copy} of {src}: the lowest id holding its vector is {lowest:?}")
            });
            if got.first().map(|n| n.id) != lowest {
                phase.failed += 1;
            }
            answers.push((v.clone(), 1, got));
        }
        // The QDR2 copy answers every probe identically.
        match (saved, loaded) {
            (Ok(()), Ok(copy)) => {
                for (q, k, got) in &answers {
                    let again = copy.tree().knn_in_budgeted(copy.tree().root(), q, *k, None);
                    let same = again.neighbors.len() == got.len()
                        && again.neighbors.iter().zip(got).all(|(a, b)| {
                            a.id == b.id && a.distance.to_bits() == b.distance.to_bits()
                        });
                    ctx.check(same, || {
                        "the loaded QDR2 copy answers a probe differently".into()
                    });
                }
            }
            (s, l) => ctx.fail(format!(
                "QDR2 round trip failed: save {s:?}, load {:?}",
                l.err()
            )),
        }
    }
}
