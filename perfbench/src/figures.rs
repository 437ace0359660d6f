//! The `figures-default` workload: the `figures --scale default`
//! pipeline, called through the same public functions the CLI uses.

use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::{Context, Outcome};
use perils_core::closure::{DependencyIndex, IndexBuildStats};
use perils_core::universe::{Universe, UniverseEvent};
use perils_core::{
    DnssecCoverageMetric, MinCutMetric, MisconfigMetric, TcbMetric, ValueMetric,
    ZombieDelegationMetric,
};
use perils_survey::engine::{AnalysisWorld, Engine, SyntheticSource, WorldSource, WorldStream};
use perils_survey::figures::ZombieFigure;
use perils_survey::render::{DirectorySink, FigureOutcome, FigureRegistry, ReportSink, SinkFormat};
use perils_survey::topology::SurveyName;
use perils_survey::SurveyConfig;
use std::collections::{BTreeMap, HashSet};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// World of every run: the CLI's default seed. The survey cost differs
/// by more than the metric bounds between worlds, so every run surveys
/// this one world, whatever its seed: the workload has no inputs to
/// draw.
const WORLD_SEED: u64 = 20040722;
/// Set-ups per run besides the pipelines' own; `setup_s` is the median
/// of all of them.
const EXTRA_SETUPS: usize = 1;
/// Run seconds per whole pipeline: set-up, survey and figures take
/// about 10 s on two cores.
const SECONDS_PER_PIPELINE: usize = 10;

/// What one set-up (plan, ingest, index) produced.
struct Setup {
    world: AnalysisWorld,
    index: DependencyIndex,
    index_stats: IndexBuildStats,
    events: usize,
    plan_s: f64,
    ingest_s: f64,
    index_s: f64,
}

impl Setup {
    fn seconds(&self) -> f64 {
        self.plan_s + self.ingest_s + self.index_s
    }
}

fn threads(config: &SurveyConfig) -> usize {
    config
        .threads
        .map(NonZeroUsize::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        .clamp(1, 16)
}

/// Plan (the source's `stream()` plus draining its events), ingest
/// (`build_universe` over the collected feed) and index.
fn setup(config: &SurveyConfig, tracer: &mut Tracer, parent: Option<SpanId>) -> Setup {
    let t0 = Instant::now();
    let mut stream = SyntheticSource {
        params: config.params.clone(),
    }
    .stream();
    let events: Vec<UniverseEvent> = stream.events().collect();
    let names: Vec<SurveyName> = stream.names().collect();
    let top500 = stream.top500().to_vec();
    let t1 = Instant::now();
    tracer.record("topology.plan", parent, 0, t0, t1);
    let n_events = events.len();
    let universe: Universe =
        WorldStream::new(events.into_iter(), std::iter::empty(), Vec::new()).build_universe();
    let t2 = Instant::now();
    tracer.record("universe.ingest", parent, 0, t1, t2);
    let (index, index_stats) = DependencyIndex::build_with_stats(&universe, threads(config));
    let t3 = Instant::now();
    let span = tracer.record("closure.index", parent, 0, t2, t3);
    // The index build reports its phases as durations; lay them out in
    // order inside the index span.
    let mut at = t2;
    for (name, d) in [
        ("closure.index_rows", index_stats.zone_rows),
        ("closure.index_scc", index_stats.scc),
        ("closure.index_condense", index_stats.condense),
        ("closure.index_memoize", index_stats.memoize),
    ] {
        tracer.record(name, span, 0, at, at + d);
        at += d;
    }
    Setup {
        world: AnalysisWorld {
            universe,
            names,
            top500,
        },
        index,
        index_stats,
        events: n_events,
        plan_s: (t1 - t0).as_secs_f64(),
        ingest_s: (t2 - t1).as_secs_f64(),
        index_s: (t3 - t2).as_secs_f64(),
    }
}

/// The CLI's engine.
fn engine(config: &SurveyConfig) -> Engine {
    Engine::with_extended_metrics()
        .register(ZombieDelegationMetric)
        .threads(config.threads)
        .exact_hijack_sample(config.exact_hijack_sample)
}

fn registry() -> FigureRegistry {
    FigureRegistry::extended().register(ZombieFigure)
}

/// One pipeline pass after set-up: survey, then figures as JSON files.
struct Pass {
    world: AnalysisWorld,
    survey_s: f64,
    /// CPU seconds of the survey, every thread.
    survey_cpu_s: f64,
    render_s: f64,
    figures: usize,
    failures: Vec<String>,
}

fn survey_and_render(
    config: &SurveyConfig,
    setup: Setup,
    out_dir: &Path,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(Pass, DependencyIndex), String> {
    let cpu0 = crate::cpu_seconds(std::process::id())?;
    let t0 = Instant::now();
    let report = engine(config).run_world_indexed(setup.world, &setup.index);
    let t1 = Instant::now();
    let survey_cpu_s = crate::cpu_seconds(std::process::id())? - cpu0;
    tracer.record("engine.survey", parent, 0, t0, t1);
    let registry = registry();
    let mut failures = Vec::new();
    let _ = std::fs::remove_dir_all(out_dir);
    let mut sink = DirectorySink::new(out_dir, SinkFormat::Json);
    for outcome in registry.build_all(&report) {
        match outcome {
            FigureOutcome::Rendered(figure) => sink
                .emit(&figure)
                .map_err(|e| format!("writing figure {}: {e}", figure.id()))?,
            FigureOutcome::Skipped { id, missing } => {
                failures.push(format!("figure {id} skipped: missing {missing:?}"))
            }
            FigureOutcome::Failed { id, error } => {
                failures.push(format!("figure {id} failed: {error}"))
            }
        }
    }
    sink.finish().map_err(|e| format!("writing figures: {e}"))?;
    let t2 = Instant::now();
    tracer.record("render.figures", parent, 0, t1, t2);
    // `exact_never_exceeds_flattened`: the exact AND/OR search can only
    // find a cut at most as large as the flattened one.
    for &(i, exact, _) in &report.exact_sample {
        if exact > report.cut_size()[i] {
            failures.push(format!(
                "exact hijack set of name {i} ({exact}) exceeds its flattened cut ({})",
                report.cut_size()[i]
            ));
        }
    }
    if report.exact_sample.is_empty() {
        failures.push("the exact hijack sample is empty".to_string());
    }
    let figures = sink.written().len();
    if figures != registry.len() {
        failures.push(format!("wrote {figures} of {} figures", registry.len()));
    }
    Ok((
        Pass {
            world: report.world,
            survey_s: (t1 - t0).as_secs_f64(),
            survey_cpu_s,
            render_s: (t2 - t1).as_secs_f64(),
            figures,
            failures,
        },
        setup.index,
    ))
}

/// Reads every file of a figure directory, by name.
fn read_dir(dir: &Path) -> Result<BTreeMap<PathBuf, Vec<u8>>, String> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        files.insert(PathBuf::from(path.file_name().expect("a file")), bytes);
    }
    Ok(files)
}

pub fn run(ctx: &Context) -> Result<Outcome, String> {
    let config = SurveyConfig::default_scaled(WORLD_SEED);
    let mut untraced = Tracer::new(false);
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setups.push(setup(&config, &mut untraced, None).seconds());
    }
    // Whole pipelines, seed to figure files; each must write the same
    // figure bytes as the first.
    let pipelines = (ctx.seconds as usize / SECONDS_PER_PIPELINE).clamp(1, 5);
    let out_dir = ctx.work_dir.join("figures");
    let mut totals = Vec::new();
    let mut surveys = Vec::new();
    let mut survey_cpus = Vec::new();
    let mut failures = Vec::new();
    let mut first_figures = None;
    let mut last = None;
    for _ in 0..pipelines {
        drop(last.take());
        let s = setup(&config, &mut untraced, None);
        let setup_s = s.seconds();
        setups.push(setup_s);
        let (pass, _) = survey_and_render(&config, s, &out_dir, &mut untraced, None)?;
        totals.push(setup_s + pass.survey_s + pass.render_s);
        surveys.push(pass.survey_s);
        survey_cpus.push(pass.survey_cpu_s);
        failures.extend(pass.failures.iter().cloned());
        let files = read_dir(&out_dir)?;
        match &first_figures {
            None => first_figures = Some(files),
            Some(first) if *first != files => {
                failures.push("figure JSON differs between two passes".to_string())
            }
            Some(_) => {}
        }
        last = Some(pass);
    }
    eprintln!(
        "perfbench: pipelines took {totals:?} s, surveys {surveys:?} s and {survey_cpus:?} CPU s"
    );
    let pass = last.expect("at least one pipeline");
    let names = pass.world.names.len();
    let total_s = stats::median_of(totals).expect("pipelines ran");
    let survey_s = stats::median_of(surveys).expect("pipelines ran");

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", stats::median_of(setups).expect("set-ups ran"));
    m.insert(
        "peak_rss_mb",
        perils_util::peak_rss_mb().ok_or("cannot read VmHWM")?,
    );
    m.insert("refresh_s", total_s);
    m.insert(
        "answers_per_cpu_s",
        names as f64 / stats::median_of(survey_cpus).expect("pipelines ran"),
    );
    // A batch survey hands every answer over when its pass ends, so the
    // median answer waits the whole survey.
    m.insert("answer_p50_ms", survey_s * 1e3);

    if ctx.trace {
        m.insert("render.figures_s", pass.render_s);
        m.insert("figures.survey_s", pass.survey_s);
        traced(ctx, &config, &out_dir, total_s, &mut m, &mut failures)?;
    }
    let attempted = (names + pass.figures) as u64 * pipelines as u64;
    Ok(Outcome {
        metrics: m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        attempted,
        failed: failures.len() as u64,
        failures,
    })
}

/// The traced run: the pipeline again with spans (its figures must be
/// byte-identical to the untraced pass), then one engine pass per
/// layer for the per-layer times.
fn traced(
    ctx: &Context,
    config: &SurveyConfig,
    untraced_dir: &Path,
    untraced_total_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let root = tracer.open("pipeline", None, 1);
    let setup_run = setup(config, &mut tracer, root);
    let (plan_s, ingest_s, events) = (setup_run.plan_s, setup_run.ingest_s, setup_run.events);
    let stats = setup_run.index_stats;
    let index_s = setup_run.index_s;
    let dir = ctx.work_dir.join("figures-traced");
    let (pass, index) = survey_and_render(config, setup_run, &dir, &mut tracer, root)?;
    tracer.close(root);
    let traced_total_s = plan_s + ingest_s + index_s + pass.survey_s + pass.render_s;
    if read_dir(untraced_dir)? != read_dir(&dir)? {
        failures.push("traced and untraced figure JSON differ".to_string());
    }
    failures.extend(pass.failures.iter().cloned());

    let world = &pass.world;
    let clone_world = || AnalysisWorld {
        universe: world.universe.clone(),
        names: world.names.clone(),
        top500: world.top500.clone(),
    };
    let layers = tracer.open("layers", None, 2);
    let timed = |tracer: &mut Tracer, name: &'static str, engine: Engine| {
        let w = clone_world();
        let t0 = Instant::now();
        std::hint::black_box(engine.threads(config.threads).run_world_indexed(w, &index));
        let t1 = Instant::now();
        tracer.record(name, layers, 2, t0, t1);
        (t1 - t0).as_secs_f64()
    };
    let base_s = timed(&mut tracer, "engine.base", Engine::new());
    let single = [
        (
            "metric.tcb",
            "metric.tcb_s",
            Engine::new().register(TcbMetric),
        ),
        (
            "metric.min_cut",
            "metric.min_cut_s",
            Engine::new().register(MinCutMetric),
        ),
        (
            "metric.value",
            "metric.value_s",
            Engine::new().register(ValueMetric),
        ),
        (
            "metric.misconfig",
            "metric.misconfig_s",
            Engine::new().register(MisconfigMetric::default()),
        ),
        (
            "metric.dnssec",
            "metric.dnssec_s",
            Engine::new().register(DnssecCoverageMetric::top_level()),
        ),
        (
            "metric.zombie",
            "metric.zombie_s",
            Engine::new().register(ZombieDelegationMetric),
        ),
    ];
    for (span, key, engine) in single {
        let s = timed(&mut tracer, span, engine);
        m.insert(key, s - base_s);
    }
    // The exact sample alone: a pass with no metrics that runs it,
    // minus the base pass.
    let exact_s = timed(
        &mut tracer,
        "hijack.exact_sample",
        Engine::new().exact_hijack_sample(config.exact_hijack_sample),
    ) - base_s;
    // Distinct delegation chains: how much a per-chain min-cut cache
    // could reuse.
    let mut chains: HashSet<Vec<u32>> = HashSet::new();
    let mut chain = Vec::new();
    for surveyed in &world.names {
        world.universe.chain_zones_into(&surveyed.name, &mut chain);
        chains.insert(chain.iter().map(|z| z.index() as u32).collect());
    }
    tracer.close(layers);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    m.insert("topology.plan_s", plan_s);
    m.insert("topology.events", events as f64);
    m.insert("universe.ingest_s", ingest_s);
    m.insert("closure.index_rows_ms", ms(stats.zone_rows));
    m.insert("closure.index_scc_ms", ms(stats.scc));
    m.insert("closure.index_condense_ms", ms(stats.condense));
    m.insert("closure.index_memoize_ms", ms(stats.memoize));
    m.insert("closure.index_total_ms", index_s * 1e3);
    let (server_sets, zone_sets) = index.memo_stats();
    m.insert("closure.interned_sets", (server_sets + zone_sets) as f64);
    m.insert("engine.base_s", base_s);
    m.insert("metric.min_cut.distinct_chains", chains.len() as f64);
    m.insert(
        "metric.min_cut.names_per_chain",
        world.names.len() as f64 / chains.len().max(1) as f64,
    );
    m.insert("hijack.exact_sample_s", exact_s);
    m.insert("figures.total_s", untraced_total_s);
    m.insert(
        "trace.overhead_pct",
        (traced_total_s - untraced_total_s) / untraced_total_s * 100.0,
    );
    m.insert("trace.spans", tracer.spans().len() as f64);
    ctx.write_trace(&tracer)
}
