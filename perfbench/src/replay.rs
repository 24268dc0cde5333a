//! The traced run (`--trace 1`). The workload's work is replayed in-process
//! through the crates' public functions, each call wrapped in a span the
//! benchmark owns (the outer pass); then the layer probes time inner public
//! functions on fixed inputs. The program itself records nothing.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use paccport_compilers::ArtifactCache;
use paccport_core::experiments as exp;
use paccport_core::report as render;
use paccport_core::{soundness, CellJournal, DiskArtifactStore, Engine, Scale, SoundnessReport};

use crate::report::{Metric, WorkloadReport};
use crate::span::{self, Tracer};
use crate::workloads::{Ctx, Kind, CONFORM_SEED};
use crate::{batch, probes, serve, stats};

/// Run one figure generator in a span, rendering its result in a nested
/// span the way `reproduce` prints it. `heads` gains a piece of each
/// `== … ==` heading `reproduce` prints for the step.
fn step<T, S>(
    t: &mut Tracer,
    heads: &mut Vec<&'static str>,
    (name, head): (&'static str, &[&'static str]),
    make: impl FnOnce() -> T,
    show: impl FnOnce(&T) -> S,
) {
    t.span(name, |t| {
        let v = make();
        t.span("core.render", |_| black_box(show(&v)));
    });
    heads.extend_from_slice(head);
}

/// Every table and figure, in the order `reproduce` prints them. Returns a
/// piece of every section heading the program prints for them, in order,
/// so that the replay can be checked against the program's output.
fn figures(t: &mut Tracer, eng: &Engine, scale: &Scale) -> Vec<&'static str> {
    let mut h = Vec::new();
    let tables = [
        "Table I:",
        "Table II:",
        "Table III:",
        "Table IV:",
        "Table V:",
        "Table VI:",
    ];
    step(
        t,
        &mut h,
        ("core.tables", &tables),
        exp::tab2_dependence_demo,
        |_| {
            [
                render::render_tab1(),
                render::render_tab3(),
                render::render_tab4(),
                render::render_tab5(),
                render::render_tab6(scale.lud_n as u64),
            ]
        },
    );
    step(
        t,
        &mut h,
        ("core.fig1", &["Fig. 1:"]),
        || exp::fig1_tiling_shared_ops_on(eng),
        |v| *v,
    );
    step(
        t,
        &mut h,
        ("core.fig8", &["Fig. 8:"]),
        exp::fig8_advanced_config,
        String::len,
    );
    step(
        t,
        &mut h,
        ("core.fig13", &["Fig. 13:"]),
        || exp::fig13_reduction_listing_on(eng),
        String::len,
    );
    step(
        t,
        &mut h,
        ("core.fig3", &["[fig3]"]),
        || exp::fig3_lud_on(eng, scale),
        render::render_elapsed,
    );
    step(
        t,
        &mut h,
        ("core.fig4", &["Fig. 4:"]),
        || exp::fig4_heatmaps_on(eng, scale),
        |hms| {
            hms.iter()
                .map(|h| (h.render(), h.best()))
                .collect::<Vec<_>>()
        },
    );
    step(
        t,
        &mut h,
        ("core.fig6", &["[fig6]"]),
        || exp::fig6_lud_ptx_on(eng, scale),
        render::render_ptx,
    );
    step(
        t,
        &mut h,
        ("core.fig7", &["[fig7]"]),
        || exp::fig7_ge_on(eng, scale),
        render::render_elapsed,
    );
    step(
        t,
        &mut h,
        ("core.fig9", &["[fig9]"]),
        || exp::fig9_ge_ptx_on(eng, scale),
        render::render_ptx,
    );
    step(
        t,
        &mut h,
        ("core.fig10", &["[fig10]"]),
        || exp::fig10_bfs_on(eng, scale),
        render::render_elapsed,
    );
    step(
        t,
        &mut h,
        ("core.fig11", &["[fig11]"]),
        || exp::fig11_bfs_ptx_on(eng, scale),
        render::render_ptx,
    );
    step(
        t,
        &mut h,
        ("core.tab7", &["Table VII:"]),
        || exp::tab7_bfs_on(eng, scale),
        |v| render::render_tab7(v),
    );
    step(
        t,
        &mut h,
        ("core.fig12", &["[fig12]"]),
        || exp::fig12_bp_on(eng, scale),
        render::render_elapsed,
    );
    step(
        t,
        &mut h,
        ("core.fig14", &["[fig14]"]),
        || exp::fig14_bp_ptx_on(eng, scale),
        render::render_ptx,
    );
    step(
        t,
        &mut h,
        ("core.fig15", &["[fig15]"]),
        || exp::fig15_hydro_on(eng, scale),
        render::render_elapsed,
    );
    step(
        t,
        &mut h,
        ("core.fig16", &["[fig16]"]),
        || exp::fig16_ppr_on(eng, scale),
        |v| render::render_ppr(v),
    );
    step(
        t,
        &mut h,
        ("core.ext1", &["Extension 1:"]),
        || exp::ext1_autotune_vs_hand_on(eng, scale),
        |rows| {
            rows.iter()
                .map(|r| render::fmt_secs(r.tuned_seconds))
                .collect::<Vec<_>>()
        },
    );
    step(
        t,
        &mut h,
        ("core.ext2", &["Extension 2:"]),
        || exp::ext2_data_regions_on(eng, scale),
        |rows| {
            rows.iter()
                .map(|r| render::fmt_secs(r.seconds))
                .collect::<Vec<_>>()
        },
    );
    h
}

/// Whether `stdout`'s `== … ==` section headings are, in order, one for
/// each piece in `heads`, each holding its piece: the replay covered what
/// the program printed, no more, no less, in the same order.
fn same_sections(stdout: &[u8], heads: &[&str]) -> bool {
    let text = String::from_utf8_lossy(stdout);
    let found: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("== ") && l.ends_with(" =="))
        .collect();
    found.len() == heads.len() && found.iter().zip(heads).all(|(l, h)| l.contains(h))
}

/// What the outer pass measured besides its spans.
struct Replay {
    wall_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The replay is a copy of what `reproduce` does; a copy that no longer
/// covers the program's output counts as a failed operation.
fn drift_gate(r: &mut WorkloadReport, same: bool) {
    r.check(same, || {
        "the replay no longer matches reproduce's output; update replay.rs".into()
    });
}

fn outer(
    kind: Kind,
    ctx: &Ctx,
    dir: &Path,
    reference: &[u8],
    t: &mut Tracer,
    r: &mut WorkloadReport,
) -> Result<Replay, String> {
    // A resident server answers from a warm cache; so does its replay.
    let serve_cache = ArtifactCache::new();
    if kind == Kind::Serve {
        for body in serve::warm_up_bodies(ctx) {
            let _ = serve::in_process(&mut Tracer::default(), &serve_cache, &body);
        }
    }
    let start = Instant::now();
    let (cache_hits, cache_misses) = outer_pass(kind, ctx, dir, reference, t, r, &serve_cache)?;
    Ok(Replay {
        wall_s: start.elapsed().as_secs_f64(),
        cache_hits,
        cache_misses,
    })
}

/// Replay the workload's work. `reference` is the stdout of the
/// end-to-end reference run the replay is checked against.
fn outer_pass(
    kind: Kind,
    ctx: &Ctx,
    dir: &Path,
    reference: &[u8],
    t: &mut Tracer,
    r: &mut WorkloadReport,
    serve_cache: &ArtifactCache,
) -> Result<(u64, u64), String> {
    let scale = |normal: fn() -> Scale| if ctx.smoke { Scale::smoke() } else { normal() };
    match kind {
        Kind::Paper => {
            let eng = Engine::new(1);
            let heads = figures(t, &eng, &scale(Scale::paper));
            r.check(eng.uninjected_failures().is_empty(), || {
                "a figure cell failed".into()
            });
            drift_gate(r, same_sections(reference, &heads));
            Ok((eng.cache().hits(), eng.cache().misses()))
        }
        Kind::Check => {
            let eng = Engine::new(1);
            let cells = t.span("kernels.cells", |_| {
                exp::soundness_cells(&scale(Scale::quick))
            });
            let mut rep = SoundnessReport {
                cells: cells.len(),
                ..Default::default()
            };
            for cell in &cells {
                match t.span("core.check_cell", |_| {
                    soundness::check_cell(eng.cache(), cell)
                }) {
                    Ok(cc) => {
                        rep.rows.extend(cc.rows);
                        rep.accesses += cc.accesses;
                    }
                    Err(e) => rep.failures.push(e),
                }
            }
            let text = t.span("core.render", |_| render::render_soundness(&rep));
            r.check(
                rep.all_consistent()
                    && rep.lost_update_caught()
                    && text.contains("invariant holds"),
                || "soundness invariant violated".into(),
            );
            // `reproduce --check` prints this very report.
            drift_gate(r, text.as_bytes() == reference);
            Ok((eng.cache().hits(), eng.cache().misses()))
        }
        Kind::Conform => {
            let programs = if ctx.smoke { 20 } else { 300 };
            for i in 0..programs {
                let case = t.span("conformance.generate", |_| {
                    paccport_conformance::generate(CONFORM_SEED, i)
                });
                let legs = t.span("conformance.check_case", |_| {
                    paccport_conformance::check_case(&case)
                });
                let bad = legs
                    .iter()
                    .find(|l| matches!(l.outcome, paccport_conformance::Outcome::Mismatch { .. }));
                r.check(bad.is_none(), || {
                    format!("case {i}: mismatch on {:?}", bad.map(|l| &l.label))
                });
            }
            Ok((0, 0))
        }
        Kind::Durable => {
            let state = dir.join("state");
            let mut counts = (0, 0);
            for (name, resume) in [("persist.cold_run", false), ("persist.resume_run", true)] {
                let (eng, heads) = t.span(name, |t| {
                    let (journal, store) = t.span("persist.open", |_| {
                        (
                            CellJournal::open(&state, resume),
                            DiskArtifactStore::open(&state),
                        )
                    });
                    let journal = journal.map_err(|e| format!("journal: {e}"))?;
                    let store = store.map_err(|e| format!("artifact store: {e}"))?;
                    let eng = Engine::new(1);
                    eng.cache().set_store(Arc::new(store));
                    let eng = eng.with_journal(Arc::new(journal));
                    let heads = figures(t, &eng, &scale(Scale::quick));
                    Ok::<_, String>((eng, heads))
                })?;
                r.check(eng.uninjected_failures().is_empty(), || {
                    "a figure cell failed".into()
                });
                drift_gate(r, same_sections(reference, &heads));
                counts.0 += eng.cache().hits();
                counts.1 += eng.cache().misses();
            }
            Ok(counts)
        }
        Kind::Serve => {
            for req in serve::block(ctx, ctx.seed) {
                let out = t.span("server.request", |t| {
                    serve::in_process(t, serve_cache, &req.body)
                });
                r.check(matches!(out, Ok((200, _))), || {
                    format!("{}: {out:?}", req.body)
                });
            }
            Ok((serve_cache.hits(), serve_cache.misses()))
        }
    }
}

/// The end-to-end figure the replay is compared with, and the program's
/// stdout: one `reproduce` repetition, or for `serve` the median latency of
/// one schedule block (and no stdout).
fn e2e_reference(
    kind: Kind,
    ctx: &Ctx,
    dir: &Path,
    r: &mut WorkloadReport,
) -> Result<(f64, Vec<u8>), String> {
    if kind != Kind::Serve {
        let op = batch::op(kind, ctx, dir, 0, false)?;
        let fault = op.fault;
        r.check(fault.is_none(), || {
            format!("end-to-end reference: {}", fault.unwrap_or_default())
        });
        return Ok((op.wall_s, op.stdout));
    }
    let (server, _) = serve::set_up(ctx, dir, false, r)?;
    let reqs = serve::block(ctx, ctx.seed);
    let due = serve::due_times(&reqs, serve::rate(ctx));
    let (out, _) = serve::open_loop(&due, serve::CONNECTIONS, |i| server.send(&reqs[i]));
    let (code, _) = server.stop()?;
    r.check(code == Some(0), || format!("server exited with {code:?}"));
    let lat: Vec<f64> = out
        .iter()
        .filter(|(_, got)| matches!(got, Ok((200, _))))
        .map(|(t, _)| t.latency_s)
        .collect();
    let median = stats::median(&lat).ok_or("serve: no request succeeded")?;
    Ok((median, Vec::new()))
}

pub fn run(kind: Kind, ctx: &Ctx, dir: &Path) -> Result<WorkloadReport, String> {
    let mut r = WorkloadReport::new(kind.name(), true);
    let (e2e_s, reference) = e2e_reference(kind, ctx, dir, &mut r)?;

    let mut t = Tracer::default();
    let replay = outer(kind, ctx, dir, &reference, &mut t, &mut r)?;
    let replay_s = replay.wall_s;
    let replayed_s = if kind == Kind::Serve {
        let per_request: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.name == "server.request")
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect();
        stats::median(&per_request).unwrap_or(f64::NAN)
    } else {
        replay_s
    };
    r.put("trace.replay_s", Metric::single("s", replay_s));
    r.put(
        "trace.replay_vs_e2e",
        Metric::single("ratio", replayed_s / e2e_s),
    );
    r.put(
        "trace.coverage_frac",
        Metric::single("ratio", t.top_level_ns() as f64 * 1e-9 / replay_s),
    );
    r.put(
        "trace.overhead_frac",
        Metric::single(
            "ratio",
            t.spans().len() as f64 * span::cost_per_span_ns() * 1e-9 / replay_s,
        ),
    );
    r.put(
        "trace.spans",
        Metric::single("count", t.spans().len() as f64),
    );
    r.put(
        "compilers.cache_hits",
        Metric::single("count", replay.cache_hits as f64),
    );
    r.put(
        "compilers.cache_misses",
        Metric::single("count", replay.cache_misses as f64),
    );
    for (name, total) in t.totals() {
        r.put_extra(
            &format!("{name}.self_s"),
            Metric::single("s", total.self_ns as f64 * 1e-9),
        );
        r.put_extra(
            &format!("{name}.calls"),
            Metric::single("count", total.count as f64),
        );
    }
    probes::run(ctx, dir, &mut r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_covers_every_section_reproduce_prints_in_order() {
        let mut t = Tracer::default();
        let heads = figures(&mut t, &Engine::new(1), &Scale::smoke());
        let out = b"title\n== Table I: flags ==\nbody\n== Fig. 1: tiling ==\n";
        assert!(same_sections(out, &["Table I:", "Fig. 1:"]));
        assert!(!same_sections(out, &["Fig. 1:", "Table I:"]), "order");
        assert!(!same_sections(out, &["Table I:"]), "a section not replayed");
        assert!(!same_sections(out, &["Table I:", "Fig. 1:", "Fig. 8:"]));
        // The real thing: the pieces are distinct, so a heading matches
        // only its own.
        assert_eq!(heads.len(), 23);
        for (i, a) in heads.iter().enumerate() {
            for b in &heads[i + 1..] {
                assert!(!a.contains(b) && !b.contains(a), "{a} / {b}");
            }
        }
    }
}
