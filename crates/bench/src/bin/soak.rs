//! Soak bench: replay seeded Poisson offered load through the
//! concurrent QA service (`pgg_core::serve`) across a load sweep × a
//! fault-rate sweep, and hold the serving layer to its robustness
//! contract at every point:
//!
//! * zero panics — no `panic:` degradation note anywhere;
//! * every admitted question answered, non-empty (degraded ≠ dropped);
//! * shed fraction 0 at the lowest load with no faults;
//! * degradation is monotone-sane: the highest load never sheds a
//!   smaller fraction than the lowest load under the same weather;
//! * outcomes byte-identical with 1 vs 8 worker threads (the DES
//!   determinism contract, checked via [`ServeReport::identity_key`]),
//!   with the same grounding `search_batch` calls (each question grounds
//!   on its own, so the calls do not depend on scheduling either).
//!
//! All latencies are *virtual* milliseconds on the seeded clock, so the
//! whole sweep is reproducible bit-for-bit.
//!
//! Usage:
//! * `cargo run --release -p bench --bin soak` — full sweep
//!   (SimpleQuestions N=20, loads 2/6/16 q/s × faults 0/0.2/0.5/storm,
//!   48 arrivals per arm), writes `BENCH_soak.json`;
//! * `cargo run --release -p bench --bin soak -- --smoke` — the CI
//!   smoke: one mid-load faulted arm, asserts the contract and exits.

use bench::warn::WarnLog;
use bench::{model, setup};
use pgg_core::{serve, Disposition, OfferedTrace, ServeConfig, ServeReport};
use simllm::FaultPlan;
use worldgen::Question;

const TRACE_SEED: u64 = 0x50AC_0007;
const FAULT_SEED: u64 = 0xC8A0_6001;

/// One fault-weather arm of the sweep.
#[derive(Clone, Copy)]
enum Weather {
    /// Uniform per-attempt fault probability across every question.
    Uniform(f64),
    /// A seeded fraction of questions faulting hard, the rest clean.
    Storm { frac: f64, total: f64 },
}

impl Weather {
    fn label(self) -> String {
        match self {
            Weather::Uniform(r) => format!("uniform({r:.1})"),
            Weather::Storm { frac, total } => format!("storm({frac:.1}@{total:.1})"),
        }
    }

    fn plan(self) -> FaultPlan {
        match self {
            Weather::Uniform(r) => FaultPlan::uniform(FAULT_SEED, r),
            Weather::Storm { frac, total } => FaultPlan::storm(FAULT_SEED, frac, total),
        }
    }
}

struct Arm {
    load_qps: f64,
    weather: Weather,
    report: ServeReport,
    /// identity_key and batch telemetry equal for workers=1 and 8.
    identity_ok: bool,
}

/// Run one (load × weather) arm twice — 1 worker and 8 workers — and
/// keep the 8-worker report (they must be byte-identical anyway).
fn run_arm(
    exp: &bench::Experiment,
    base: &pgg_core::BaseIndex,
    questions: &[Question],
    load_qps: f64,
    weather: Weather,
    arrivals: usize,
) -> Arm {
    let offered = OfferedTrace::poisson(TRACE_SEED, load_qps, arrivals, questions.len());
    let run = |workers: usize| {
        // Fresh fault decorator per run: its per-slot attempt counters
        // are state, and sharing them across runs (or worker counts)
        // would entangle the fault schedules.
        let faulty = simllm::FaultyLlm::new(model(&exp.world, "gpt-3.5"), weather.plan());
        let scfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        serve(
            &faulty,
            &exp.wikidata,
            base,
            &exp.embedder,
            &exp.cfg,
            &scfg,
            questions,
            &offered,
        )
    };
    let one = run(1);
    let eight = run(8);
    let identity_ok = one.identity_key() == eight.identity_key() && one.batch == eight.batch;
    Arm {
        load_qps,
        weather,
        report: eight,
        identity_ok,
    }
}

/// The per-arm robustness contract. Returns violations.
fn check_arm(a: &Arm) -> Vec<String> {
    let tag = format!("load {:.0} q/s, {}", a.load_qps, a.weather.label());
    let mut bad = Vec::new();
    if !a.identity_ok {
        bad.push(format!(
            "{tag}: outcomes or grounding calls differ between 1 and 8 workers"
        ));
    }
    for o in &a.report.outcomes {
        if let Disposition::Answered {
            answer,
            degradation,
            ..
        } = &o.disposition
        {
            if answer.is_empty() {
                bad.push(format!("{tag}: offered #{} answered empty", o.offered));
            }
            if let Some(p) = degradation.iter().find(|d| d.starts_with("panic:")) {
                bad.push(format!("{tag}: worker panic surfaced — {p}"));
            }
        }
    }
    bad
}

fn deadline_degraded(r: &ServeReport) -> usize {
    r.outcomes
        .iter()
        .filter(|o| match &o.disposition {
            Disposition::Answered { degradation, .. } => {
                degradation.iter().any(|d| d.starts_with("deadline:"))
            }
            Disposition::Shed { .. } => false,
        })
        .count()
}

fn saturation_qps(r: &ServeReport) -> f64 {
    if r.makespan_ms == 0 {
        0.0
    } else {
        r.answered() as f64 / (r.makespan_ms as f64 / 1e3)
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        concat!(
            "    {{\"load_qps\": {:.1}, \"weather\": \"{}\", ",
            "\"offered\": {}, \"answered\": {}, \"shed\": {}, ",
            "\"shed_fraction\": {:.4}, \"p50_ms\": {}, \"p99_ms\": {}, ",
            "\"saturation_qps\": {:.2}, \"deadline_degraded\": {}, ",
            "\"breaker_transitions\": {}, \"batches\": {}, ",
            "\"workers_1_vs_8_identical\": {}}}"
        ),
        a.load_qps,
        a.weather.label(),
        a.report.outcomes.len(),
        a.report.answered(),
        a.report.shed(),
        a.report.shed_fraction(),
        a.report.latency_percentile_ms(50.0),
        a.report.latency_percentile_ms(99.0),
        saturation_qps(&a.report),
        deadline_degraded(&a.report),
        a.report.breaker_transitions.len(),
        a.report.batch.batches,
        a.identity_ok,
    )
}

fn smoke() {
    let exp = setup(20);
    let base = exp.base(&exp.simpleq, &exp.wikidata);
    let a = run_arm(
        &exp,
        &base,
        &exp.simpleq.questions,
        6.0,
        Weather::Uniform(0.3),
        16,
    );
    let violations = check_arm(&a);
    for v in &violations {
        eprintln!("soak smoke violation: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    println!(
        "soak smoke ok: 16 offered at 6 q/s, fault 0.3 — answered={} shed={} \
         p50={}ms p99={}ms transitions={} workers 1/8 identical",
        a.report.answered(),
        a.report.shed(),
        a.report.latency_percentile_ms(50.0),
        a.report.latency_percentile_ms(99.0),
        a.report.breaker_transitions.len(),
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let exp = setup(20);
    let base = exp.base(&exp.simpleq, &exp.wikidata);
    let questions = &exp.simpleq.questions;
    let loads = [2.0, 6.0, 16.0];
    let weathers = [
        Weather::Uniform(0.0),
        Weather::Uniform(0.2),
        Weather::Uniform(0.5),
        Weather::Storm {
            frac: 0.4,
            total: 1.0,
        },
    ];
    const ARRIVALS: usize = 48;

    let mut arms: Vec<Arm> = Vec::new();
    for &w in &weathers {
        for &load in &loads {
            let a = run_arm(&exp, &base, questions, load, w, ARRIVALS);
            println!(
                "arm load={:>4.1} q/s weather={:<16} answered={:>2} shed={:>2} \
                 shed_frac={:.2} p50={:>5}ms p99={:>5}ms sat={:>5.2} q/s \
                 degraded={:>2} transitions={} identical={}",
                a.load_qps,
                a.weather.label(),
                a.report.answered(),
                a.report.shed(),
                a.report.shed_fraction(),
                a.report.latency_percentile_ms(50.0),
                a.report.latency_percentile_ms(99.0),
                saturation_qps(&a.report),
                deadline_degraded(&a.report),
                a.report.breaker_transitions.len(),
                a.identity_ok,
            );
            arms.push(a);
        }
    }

    let mut violations: Vec<String> = Vec::new();
    for a in &arms {
        violations.extend(check_arm(a));
    }
    // The clean low-load arm must shed nothing: backpressure and the
    // breaker exist for overload and fault storms, not fair weather.
    let calm = &arms[0];
    if calm.report.shed() != 0 {
        violations.push(format!(
            "lowest load with no faults shed {} arrivals",
            calm.report.shed()
        ));
    }
    // Monotone-sane degradation per weather: more offered load never
    // sheds a *smaller* fraction.
    for w_idx in 0..weathers.len() {
        let lo = &arms[w_idx * loads.len()];
        let hi = &arms[w_idx * loads.len() + loads.len() - 1];
        if hi.report.shed_fraction() + 1e-9 < lo.report.shed_fraction() {
            violations.push(format!(
                "{}: shed fraction fell from {:.3} (load {:.0}) to {:.3} (load {:.0})",
                lo.weather.label(),
                lo.report.shed_fraction(),
                lo.load_qps,
                hi.report.shed_fraction(),
                hi.load_qps,
            ));
        }
    }
    for v in &violations {
        eprintln!("soak invariant violated: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }

    // Advisory (non-fatal, but carried into the report): under each
    // weather, pushing load should not *collapse* delivered throughput.
    // Shedding more is fine — that is the backpressure contract — but
    // if the saturation q/s at the highest load falls below half the
    // best load point, admission control is thrashing rather than
    // protecting the service.
    let mut warn = WarnLog::new();
    for w_idx in 0..weathers.len() {
        let row = &arms[w_idx * loads.len()..(w_idx + 1) * loads.len()];
        let best = row
            .iter()
            .map(|a| saturation_qps(&a.report))
            .fold(0.0f64, f64::max);
        let hi = row.last().expect("each weather has load arms");
        let hi_sat = saturation_qps(&hi.report);
        if hi_sat < 0.5 * best {
            warn.warn(format!(
                "{}: saturation collapsed under load — {:.2} q/s at load \
                 {:.0} vs {:.2} q/s best across loads",
                hi.weather.label(),
                hi_sat,
                hi.load_qps,
                best,
            ));
        }
    }

    let arm_rows: Vec<String> = arms.iter().map(arm_json).collect();
    let report = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"soak\",\n",
            "  \"dataset\": \"simpleq\",\n",
            "  \"arrivals_per_arm\": {},\n",
            "  \"trace_seed\": {},\n",
            "  \"fault_seed\": {},\n",
            "  \"arms\": [\n",
            "{}\n",
            "  ],\n",
            "  \"gates\": {{\"zero_panics\": true, ",
            "\"every_admission_answered\": true, ",
            "\"calm_low_load_unshed\": true, ",
            "\"monotone_shed\": true, ",
            "\"worker_count_identity\": true}},\n",
            "  \"warnings\": [{}]\n",
            "}}\n"
        ),
        ARRIVALS,
        TRACE_SEED,
        FAULT_SEED,
        arm_rows.join(",\n"),
        warn.json_array(),
    );
    std::fs::write("BENCH_soak.json", &report).expect("write BENCH_soak.json");
    println!("\n{report}");
    println!(
        "soak ok: {} arms, all gates hold (zero panics, every admission \
         answered, calm low load unshed, monotone shed, 1-vs-8-worker \
         identity) — BENCH_soak.json written",
        arms.len()
    );
}
