//! Regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--json <path>] [--server <addr>] [--signature] <subcommand>
//!     table1   design statistics                     (paper Table 1)
//!     table2   difficult test classes                (paper Table 2)
//!     table3   generator/filter compatibility        (paper Table 3)
//!     table4   missed faults @ 4k + normalized       (paper Tables 4, 5)
//!     table6   mixed LFSR-1/LFSR-M test @ 8k         (paper Table 6)
//!     fig1     test zones on a tap amplitude PDF     (paper Fig. 1)
//!     fig2     injected-fault sine response          (paper Figs. 2, 3)
//!     fig4     generator power spectra               (paper Fig. 4)
//!     fig5     LFSR-1 waveform segment               (paper Fig. 5)
//!     fig6     tap-20 signals, LFSR-1 vs LFSR-D      (paper Figs. 6, 7)
//!     fig8     tap-20 distributions, theory vs sim   (paper Figs. 8, 9)
//!     fig10    coverage curves, 4 gens x 3 designs   (paper Figs. 10-12)
//!     fig13    mixed-mode coverage curve             (paper Fig. 13)
//!     severity missed-fault triage under a sine      (Section 5, quantified)
//!     extensions  larger LFSRs + tuned phase         (Conclusion items)
//!     scaling  aggressive-scaling trade-off          (Conclusion item)
//!     ablation pruning stages & drop schedules       (engine study)
//!     csa      ripple vs carry-save vs symmetric     (Section 3)
//!     all      everything above
//!
//! With `--json <path>`, every BIST run's structured artifact
//! (coverage, missed-fault census by difficult-test class, per-stage
//! durations, engine counters) is aggregated into one `BENCH_*.json`
//! document at exit; a directory path gets the canonical
//! `BENCH_<subcommand>.json` name inside it. Schema in EXPERIMENTS.md.
//!
//! With `--server <addr>` (host:port or unix:<path>), the Section 8
//! fault-simulation grid — `table4` and `table6` — is farmed out to a
//! running `bistd` daemon instead of simulating inline, so repeated
//! sweeps hit its result cache. Other subcommands, and the `--json`
//! artifact log, still run locally.
//!
//! With `--signature`, the Section 8 grid (`table4`, `table6`) checks
//! responses through the 16-bit MISR instead of the direct trace
//! compare, and the tables grow an aliased-fault column (expected all
//! zero — see DESIGN.md §10).
//!
//! Performance is measured by the benchmark in `perfbench/` (see
//! `perfbench/README.md`); bit-identity and proof checks live in
//! `cargo test`.
//! ```

use bist_bench::{
    cell_lint, cell_lint_mode, generator, paper_designs, plot, run_config, run_config_mode,
    run_session, table, SECTION8_GENERATORS,
};
use bist_core::campaign::{shared_session, CampaignSpec};
use bist_core::session::{BistSession, ResponseCheck};
use bist_core::{compat, distribution, variance, zones};
use bistd::{Client, ServerAddr};
use dsp::stats::Summary;
use filters::FilterDesign;
use rtl::range::{aligned_input_range, RangeAnalysis};
use tpg::{collect_values, TestGenerator};

/// Vectors per Section 8 run (the paper's Table 4 test length).
const SECTION8_VECTORS: usize = 4096;

fn main() {
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut server: Option<ServerAddr> = None;
    let mut subcommand: Option<String> = None;
    let mut mode = ResponseCheck::Trace;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            let Some(path) = args.next() else {
                eprintln!("--json needs a path argument");
                std::process::exit(2);
            };
            json_path = Some(path.into());
        } else if a == "--server" {
            let Some(addr) = args.next() else {
                eprintln!("--server needs an address argument (host:port or unix:<path>)");
                std::process::exit(2);
            };
            server = Some(ServerAddr::parse(&addr));
        } else if a == "--signature" {
            mode = ResponseCheck::Signature;
        } else if subcommand.is_none() {
            subcommand = Some(a);
        } else {
            eprintln!("unexpected extra argument '{a}'; see source header for usage");
            std::process::exit(2);
        }
    }
    let arg = subcommand.unwrap_or_else(|| "all".to_string());
    let all = arg == "all";
    let mut ran = false;
    let mut run = |name: &str, f: &dyn Fn()| {
        if all || arg == name {
            f();
            ran = true;
        }
    };
    run("table1", &table1);
    run("table2", &table2);
    run("table3", &table3);
    run("table4", &|| table4(server.as_ref(), mode));
    run("table6", &|| table6(server.as_ref(), mode));
    run("fig1", &fig1);
    run("fig2", &fig2);
    run("fig4", &fig4);
    run("fig5", &fig5);
    run("fig6", &fig6);
    run("fig8", &fig8);
    run("fig10", &fig10);
    run("fig13", &fig13);
    run("severity", &severity);
    run("extensions", &extensions);
    run("scaling", &scaling);
    run("ablation", &ablation);
    run("csa", &csa);
    if !ran {
        eprintln!("unknown experiment '{arg}'; see source header for the list");
        std::process::exit(2);
    }
    if let Some(path) = json_path {
        // The paper's Table 6 grid writes `BENCH_6.json`, not
        // `BENCH_table6.json` (see EXPERIMENTS.md).
        let tag = if arg == "table6" { "6" } else { arg.as_str() };
        match bist_bench::artifacts::write_bench_json(tag, &path) {
            Ok(written) => {
                let runs = bist_bench::artifacts::collected().len();
                eprintln!("wrote {} ({runs} run artifacts)", written.display());
            }
            Err(e) => {
                eprintln!("failed to write bench artifact to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

fn banner(title: &str) {
    println!("\n==== {title} ====\n");
}

// ---------------------------------------------------------------- Table 1

fn table1() {
    banner("Table 1: design statistics (paper: LP 183/60, BP 161/58, HP 175/60 adders/regs)");
    let rows: Vec<Vec<String>> = paper_designs()
        .iter()
        .map(|d| {
            let s = d.netlist().stats();
            let session = shared_session(d.name()).expect("registry design");
            vec![
                d.name().to_string(),
                s.arithmetic().to_string(),
                s.registers.to_string(),
                d.spec().input_bits.to_string(),
                d.spec().coef_frac_bits.to_string(),
                s.width.to_string(),
                session.universe().uncollapsed_len().to_string(),
                session.universe().len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["design", "adders", "regs", "in", "coef.", "out", "faults", "collapsed"],
            &rows
        )
    );
}

// ---------------------------------------------------------------- Table 2

fn table2() {
    banner("Table 2: difficult test classes at the next-to-MSB cell");
    let mut rows = Vec::new();
    for t in zones::DifficultTest::all() {
        let conds = zones::io_conditions(t);
        for (i, c) in conds.iter().enumerate() {
            let class = if i == 0 { "a" } else { "b" };
            let a_range = format!(
                "{} <= A < {}",
                c.a_min.map_or("-1".into(), |v| format!("{v}")),
                c.a_max.map_or("1".into(), |v| format!("{v}"))
            );
            let out = match (c.sum_min, c.sum_max) {
                (Some(lo), None) => format!("A+B >= {lo}"),
                (None, Some(hi)) => format!("A+B < {hi}"),
                _ => "-".into(),
            };
            rows.push(vec![
                format!("{t}{class}"),
                a_range,
                format!("{out}{}", if c.overflow { " (ovf)" } else { "" }),
            ]);
        }
    }
    println!("{}", table::render(&["Test", "Input", "Output"], &rows));

    let confined = zones::classes_confined_to_difficult_tests();
    println!(
        "gate-level cross-check: {} of {} collapsed cell fault classes are detectable \
         ONLY by difficult tests (T1/T2/T5/T6)",
        confined.len(),
        rtl::fulladder::fault_classes(None).len()
    );
}

// ---------------------------------------------------------------- Table 3

fn table3() {
    banner("Table 3: frequency-domain compatibility (paper: rows LFSR-1 -/±/+, LFSR-2 ±/±/+, LFSR-D +/+/+, LFSR-M +/+/+, Ramp +/-/-)");
    let gens = compat::paper_generator_spectra(1024);
    let table3 = compat::type_compatibility_table(&gens);
    let rows: Vec<Vec<String>> = table3
        .iter()
        .map(|(name, ratings)| {
            let mut row = vec![name.clone()];
            row.extend(ratings.iter().map(|r| r.to_string()));
            row
        })
        .collect();
    println!("{}", table::render(&["", "Lowpass", "Bandpass", "Highpass"], &rows));
    println!("per-design ratios against an ideal white generator of equal variance:");
    let designs = paper_designs();
    let reference = tpg::spectra::flat(1.0 / 3.0, 1024);
    for g in &gens {
        print!("  {:7}:", g.name);
        for d in &designs {
            print!(
                " {}={:.4}",
                d.name(),
                compat::compatibility_ratio(&g.spectrum, &reference, &d.coefficients())
            );
        }
        println!();
    }
    println!("static lint per cell (errors/warnings/infos, no simulation):");
    let lint_rows: Vec<Vec<String>> = gens
        .iter()
        .map(|g| {
            let mut row = vec![g.name.clone()];
            row.extend(designs.iter().map(|d| cell_lint(d, &g.name, SECTION8_VECTORS)));
            row
        })
        .collect();
    println!("{}", table::render(&["", "Lowpass", "Bandpass", "Highpass"], &lint_rows));
}

// ------------------------------------------------------------ Tables 4, 5

/// Missed- and aliased-fault counts for one grid cell, farmed out to a
/// `bistd` daemon. Normalization and table layout stay local:
/// everything the tables need beyond these counts is derivable from
/// the design.
fn remote_cell(
    server: &ServerAddr,
    design: &str,
    gen_name: &str,
    vectors: usize,
    mode: ResponseCheck,
) -> (usize, usize) {
    let run = Client::connect(server)
        .and_then(|mut client| {
            let spec = CampaignSpec::new(design, gen_name, vectors).with_mode(mode);
            let spec = CampaignSpec { threads: run_config(0).threads(), ..spec };
            client.run_campaign(&spec, None)
        })
        .unwrap_or_else(|e| {
            eprintln!("--server {server}: {design}/{gen_name} failed: {e}");
            std::process::exit(1);
        });
    let count = |field: &str| {
        run.artifact
            .get(field)
            .and_then(obs::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("campaign artifacts report '{field}'")) as usize
    };
    (count("missed"), count("aliased"))
}

fn table4(server: Option<&ServerAddr>, mode: ResponseCheck) {
    banner("Tables 4 & 5: missed faults after 4k vectors (paper Table 4) and normalized by adder count (paper Table 5)");
    let designs = paper_designs();
    let mut rows4 = Vec::new();
    let mut rows5 = Vec::new();
    let mut rows_aliased = Vec::new();
    for d in &designs {
        let session = server.is_none().then(|| shared_session(d.name()).expect("registry design"));
        let adders = d.netlist().stats().arithmetic() as f64;
        let mut row4 = vec![d.name().to_string()];
        let mut row5 = vec![d.name().to_string()];
        let mut row_aliased = vec![d.name().to_string()];
        for name in SECTION8_GENERATORS {
            let (missed, aliased) = match (server, &session) {
                (Some(addr), _) => remote_cell(addr, d.name(), name, SECTION8_VECTORS, mode),
                (None, Some(session)) => {
                    let mut gen = generator(name);
                    let run =
                        run_session(session, &mut *gen, &run_config_mode(SECTION8_VECTORS, mode));
                    (run.missed(), run.artifact.aliased)
                }
                (None, None) => unreachable!("inline mode builds a session"),
            };
            row4.push(missed.to_string());
            row5.push(format!("{:.2}", missed as f64 / adders));
            row_aliased.push(aliased.to_string());
        }
        rows4.push(row4);
        rows5.push(row5);
        rows_aliased.push(row_aliased);
    }
    let header = ["Des.", "LFSR-1", "LFSR-D", "LFSR-M", "Ramp"];
    println!(
        "missed faults (paper: LP 519/331/1097/485, BP 201/193/1005/1230, HP 308/315/1030/1679)"
    );
    println!("{}", table::render(&header, &rows4));
    println!("normalized (paper: LP 2.84/1.81/5.99/2.65, BP 1.25/1.20/6.24/7.64, HP 1.76/1.80/5.89/9.59)");
    println!("{}", table::render(&header, &rows5));
    if mode == ResponseCheck::Signature {
        println!(
            "aliased faults (detected by compare, missed by the 16-bit signature; expected 0):"
        );
        println!("{}", table::render(&header, &rows_aliased));
    }
    let lint_rows: Vec<Vec<String>> = designs
        .iter()
        .map(|d| {
            let mut row = vec![d.name().to_string()];
            row.extend(
                SECTION8_GENERATORS
                    .iter()
                    .map(|name| cell_lint_mode(d, name, SECTION8_VECTORS, mode)),
            );
            row
        })
        .collect();
    println!("static lint per cell (predicts the hot cells of the grid above without simulating):");
    println!("{}", table::render(&header, &lint_rows));
}

// ---------------------------------------------------------------- Table 6

fn table6(server: Option<&ServerAddr>, mode: ResponseCheck) {
    banner(
        "Table 6: mixed LFSR-1/LFSR-M test, 4k + 4k vectors (paper: LP 148 (0.81), HP 137 (0.40))",
    );
    let designs = paper_designs();
    let mut rows = Vec::new();
    for d in designs.iter().filter(|d| d.name() == "LP" || d.name() == "HP") {
        // Mixed run at 8k, plus the best single-mode baseline at 4k
        // for the improvement factor.
        let (missed, aliased, best) = match server {
            Some(addr) => {
                let mixed = format!("Mixed@{SECTION8_VECTORS}");
                let (missed, aliased) =
                    remote_cell(addr, d.name(), &mixed, 2 * SECTION8_VECTORS, mode);
                let best = SECTION8_GENERATORS
                    .iter()
                    .map(|name| remote_cell(addr, d.name(), name, SECTION8_VECTORS, mode).0)
                    .min()
                    .expect("nonempty roster");
                (missed, aliased, best)
            }
            None => {
                let session = shared_session(d.name()).expect("registry design");
                let mut gen = generator(&format!("Mixed@{SECTION8_VECTORS}"));
                let run =
                    run_session(session, &mut *gen, &run_config_mode(2 * SECTION8_VECTORS, mode));
                let mut best = usize::MAX;
                for name in SECTION8_GENERATORS {
                    let mut g = generator(name);
                    best = best.min(
                        run_session(session, &mut *g, &run_config_mode(SECTION8_VECTORS, mode))
                            .missed(),
                    );
                }
                (run.missed(), run.artifact.aliased, best)
            }
        };
        rows.push(vec![
            d.name().to_string(),
            missed.to_string(),
            format!("{:.2}", missed as f64 / d.netlist().stats().arithmetic() as f64),
            format!("{:.2}x", best as f64 / missed.max(1) as f64),
            if mode == ResponseCheck::Signature { aliased.to_string() } else { "-".to_string() },
            cell_lint_mode(d, &format!("Mixed@{SECTION8_VECTORS}"), 2 * SECTION8_VECTORS, mode),
        ]);
    }
    println!(
        "{}",
        table::render(
            &["Des.", "misses", "normalized", "vs best single (4k)", "aliased", "lint"],
            &rows
        )
    );
}

// ------------------------------------------------------------------ Fig 1

fn fig1() {
    banner("Fig. 1: difficult-test activation zones on a tap amplitude PDF");
    let d = paper_designs().remove(0);
    let node = tap_acc(&d, 20);
    let g = tpg::model::lfsr1_model(12, tpg::ShiftDirection::LsbToMsb);
    let dist = distribution::predict_lfsr(d.netlist(), node, &g, distribution::DEFAULT_STEP);
    let density = dist.density_on(-1.0, 1.0, 80);
    println!("predicted amplitude PDF at tap 20 of LP under LFSR-1 (std {:.4}):", dist.std_dev());
    println!("{}", plot::ascii(&[("pdf", &density)], 80, 12));
    let b = 0.05;
    for t in zones::DifficultTest::all() {
        let zs = zones::activation_zones(t, b);
        let p = zones::activation_probability(t, &dist, b);
        println!("{t}: zones {zs:?} (|B| <= {b})  P[activation] = {p:.3e}");
    }
}

// -------------------------------------------------------------- Figs 2, 3

fn fig2() {
    banner("Figs. 2 & 3: a serious fault missed by the LFSR-1 test (sine response)");
    let d = paper_designs().remove(0);
    let session = shared_session(d.name()).expect("registry design");
    let mut gen = generator("LFSR-1");
    let run = run_session(session, &mut *gen, &run_config(SECTION8_VECTORS));
    println!(
        "LFSR-1 @4k coverage on LP: {:.2}% ({} faults missed)",
        100.0 * run.coverage(),
        run.missed()
    );

    // Locate a missed fault that a passband sine DOES excite.
    let by_node = faultsim::report::missed_by_node(
        d.netlist(),
        session.universe(),
        session.ranges(),
        &run.result,
    );
    let mut sine = tpg::Sine::new(12, 0.85, 0.015).expect("valid sine");
    let inputs: Vec<i64> = (0..1024).map(|_| d.align_input(sine.next_word())).collect();
    let mut shown = false;
    'search: for summary in &by_node {
        for (&fid, &depth) in summary.missed.iter().zip(&summary.bits_below_msb) {
            let trace =
                faultsim::inject::trace_fault(d.netlist(), session.universe(), fid, &inputs);
            if trace.peak_error() > 0 {
                let lsb = d.netlist().format().lsb();
                println!(
                    "injected fault: {} at {} ({} bits below the effective MSB)",
                    session.universe().site(fid),
                    summary.label,
                    depth
                );
                println!(
                    "sine input (amplitude 0.85, f=0.015): fault excited at {} of 1024 cycles, peak error {:.4} full-scale",
                    trace.divergent_cycles().len(),
                    trace.peak_error() as f64 * lsb
                );
                let faulty: Vec<f64> = trace.faulty.iter().map(|&r| r as f64 * lsb).collect();
                let error: Vec<f64> = trace.error().iter().map(|&e| e as f64 * lsb).collect();
                println!("faulty output (spike pairs ride the sine peaks, paper Fig. 2):");
                println!("{}", plot::ascii(&[("faulty", &faulty[200..520])], 100, 14));
                println!("fault effect alone (faulty - good):");
                println!("{}", plot::ascii(&[("error", &error[200..520])], 100, 8));
                shown = true;
                break 'search;
            }
        }
    }
    if !shown {
        println!("(no missed fault excitable by this sine — all misses near-redundant)");
    }
}

// ------------------------------------------------------------------ Fig 4

fn fig4() {
    banner("Fig. 4: power spectra of the BIST test generators (dB vs normalized frequency)");
    let bins = 96;
    let specs = compat::paper_generator_spectra(bins);
    let series: Vec<(&str, Vec<f64>)> =
        specs.iter().map(|g| (g.name.as_str(), g.spectrum.values_db())).collect();
    let refs: Vec<(&str, &[f64])> = series.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    println!("{}", plot::ascii(&refs, 96, 20));
    println!("(x axis: 0 .. 0.5 of the sample rate; paper Fig. 4 shows the same ordering:");
    println!(" Ramp collapses above DC, LFSR-1 nulls at DC, LFSR-D flat at -4.77 dB, LFSR-M flat at 0 dB)");
    for g in &specs {
        println!(
            "  {:7}: mean power {:+.2} dB, power below 0.05fs: {:.1}%",
            g.name,
            10.0 * g.spectrum.mean_power().log10(),
            100.0 * g.spectrum.power_fraction_below(0.05)
        );
    }
}

// ------------------------------------------------------------------ Fig 5

fn fig5() {
    banner("Fig. 5: 300-sample segment of the 12-bit Type 1 LFSR sequence (paper: std 0.577)");
    let mut gen = generator("LFSR-1");
    let x = collect_values(&mut *gen, 300);
    let s = Summary::of(&x).expect("nonempty");
    println!("{}", plot::ascii(&[("LFSR-1", &x)], 100, 16));
    println!("standard deviation over the full period: {:.3}", {
        let mut g2 = generator("LFSR-1");
        Summary::of(&collect_values(&mut *g2, 4095)).expect("nonempty").std_dev()
    });
    println!("segment std: {:.3}, mean {:.3}", s.std_dev(), s.mean);
}

// -------------------------------------------------------------- Figs 6, 7

fn fig6() {
    banner("Figs. 6 & 7: test signal at tap 20 of LP — LFSR-1 vs decorrelated (paper: std 0.036 -> 0.121, 3.4x)");
    let d = paper_designs().remove(0);
    let node = tap_acc(&d, 20);
    let lsb = d.netlist().format().lsb();
    let mut stds = Vec::new();
    for name in ["LFSR-1", "LFSR-D"] {
        let mut gen = generator(name);
        let inputs: Vec<i64> = (0..4095).map(|_| d.align_input(gen.next_word())).collect();
        let samples = faultsim::inject::probe_node(d.netlist(), node, &inputs);
        let values: Vec<f64> = samples.iter().map(|&r| r as f64 * lsb).collect();
        let s = Summary::of(&values).expect("nonempty");
        println!("{name}: tap-20 std {:.4} (segment below)", s.std_dev());
        println!("{}", plot::ascii(&[(name, &values[300..600])], 100, 12));
        stds.push(s.std_dev());
    }
    println!("decorrelation gain: {:.2}x (paper: 3.4x)", stds[1] / stds[0]);

    // Eq. 1 prediction for the same two cases.
    let ranges = RangeAnalysis::analyze(d.netlist(), aligned_input_range(12, 16));
    let g = tpg::model::lfsr1_model(12, tpg::ShiftDirection::LsbToMsb);
    let shaped = variance::analyze(
        d.netlist(),
        &ranges,
        &[node],
        &variance::SourceModel::Shaped { model: g },
    );
    let white = variance::analyze(
        d.netlist(),
        &ranges,
        &[node],
        &variance::SourceModel::White { variance: 1.0 / 3.0 },
    );
    println!("Eq. 1 predictions: LFSR-1 {:.4}, white {:.4}", shaped[0].std_dev, white[0].std_dev);
}

// -------------------------------------------------------------- Figs 8, 9

fn fig8() {
    banner("Figs. 8 & 9: amplitude distribution at tap 20 — theory vs simulation");
    let d = paper_designs().remove(0);
    let node = tap_acc(&d, 20);
    let bins = 80;

    // Fig. 8: LFSR-1, linear-model prediction vs histogram.
    let g = tpg::model::lfsr1_model(12, tpg::ShiftDirection::LsbToMsb);
    let theory = distribution::predict_lfsr(d.netlist(), node, &g, distribution::DEFAULT_STEP);
    let mut gen = generator("LFSR-1");
    let inputs: Vec<i64> = (0..4095).map(|_| d.align_input(gen.next_word())).collect();
    let hist = distribution::simulate_histogram(d.netlist(), node, &inputs, bins);
    let span = 4.0 * theory.std_dev().max(1e-6);
    let t_density = theory.density_on(-span, span, bins);
    let mut h_density = vec![0.0; bins];
    // Re-bin the [-1,1) histogram onto the zoomed span.
    {
        let samples = faultsim::inject::probe_node(d.netlist(), node, &inputs);
        let lsb = d.netlist().format().lsb();
        let mut zoom = dsp::stats::Histogram::new(-span, span, bins);
        for &r in &samples {
            zoom.add(r as f64 * lsb);
        }
        h_density.copy_from_slice(&zoom.density());
    }
    println!(
        "Fig. 8 (LFSR-1): theory (linear model) vs simulation histogram, zoomed to +-{span:.3}:"
    );
    println!("{}", plot::ascii(&[("theory", &t_density), ("actual", &h_density)], 80, 14));
    println!("mismatch (max |diff| / peak): {:.3}", distribution::density_mismatch(&theory, &hist));

    // Fig. 9: decorrelated vs idealized independent-vector prediction.
    let ideal = distribution::predict_ideal(d.netlist(), node, distribution::DEFAULT_STEP);
    let mut gen_d = generator("LFSR-D");
    let inputs_d: Vec<i64> = (0..4095).map(|_| d.align_input(gen_d.next_word())).collect();
    let hist_d = distribution::simulate_histogram(d.netlist(), node, &inputs_d, bins);
    let span_d = 4.0 * ideal.std_dev().max(1e-6);
    let t2 = ideal.density_on(-span_d, span_d, bins);
    let mut h2 = vec![0.0; bins];
    {
        let samples = faultsim::inject::probe_node(d.netlist(), node, &inputs_d);
        let lsb = d.netlist().format().lsb();
        let mut zoom = dsp::stats::Histogram::new(-span_d, span_d, bins);
        for &r in &samples {
            zoom.add(r as f64 * lsb);
        }
        h2.copy_from_slice(&zoom.density());
    }
    println!("Fig. 9 (LFSR-D vs idealized generator), zoomed to +-{span_d:.3}:");
    println!("{}", plot::ascii(&[("theory", &t2), ("LFSR-D", &h2)], 80, 14));
    println!("mismatch: {:.3}", distribution::density_mismatch(&ideal, &hist_d));
}

// ------------------------------------------------------------ Figs 10-12

fn fig10() {
    banner("Figs. 10-12: fault-coverage curves, 4 generators x 3 designs");
    for d in paper_designs() {
        let session = shared_session(d.name()).expect("registry design");
        println!("--- {} (universe {} faults) ---", d.name(), session.universe().len());
        let checkpoints: Vec<u32> = vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for name in SECTION8_GENERATORS {
            let mut gen = generator(name);
            let run = run_session(session, &mut *gen, &run_config(SECTION8_VECTORS));
            // Zoom to the knee region, as the paper's figures do
            // ("the vertical scale has been changed to accommodate the
            // Ramp curve"): clamp below 80% coverage.
            let curve: Vec<f64> = run
                .result
                .curve(&checkpoints)
                .iter()
                .map(|&(_, c)| (100.0 * c).max(80.0))
                .collect();
            series.push((name.to_string(), curve));
        }
        let refs: Vec<(&str, &[f64])> =
            series.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
        println!("(coverage clamped at 80% — the paper rescales similarly)");
        println!("{}", plot::ascii(&refs, 90, 16));
        print!("vectors:");
        for c in &checkpoints {
            print!(" {c}");
        }
        println!(" (log-spaced)");
        for (name, curve) in &series {
            println!("  {:7} final coverage {:.2}%", name, curve.last().expect("nonempty"));
        }
    }
}

// ----------------------------------------------------------------- Fig 13

fn fig13() {
    banner("Fig. 13: mixed-mode advantage on LP (switch to max-variance after 2k vectors)");
    let designs = paper_designs();
    let d = &designs[0];
    let session = shared_session(d.name()).expect("registry design");
    let checkpoints: Vec<u32> = vec![16, 64, 256, 1024, 1536, 2048, 2560, 3072, 4096];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, mut gen) in [
        ("LFSR-1".to_string(), generator("LFSR-1")),
        ("LFSR-M".to_string(), generator("LFSR-M")),
        ("mixed@2k".to_string(), generator("Mixed@2048")),
    ] {
        let run = run_session(session, &mut *gen, &run_config(SECTION8_VECTORS));
        let curve: Vec<f64> =
            run.result.curve(&checkpoints).iter().map(|&(_, c)| (100.0 * c).max(80.0)).collect();
        println!(
            "  {:9} misses @4k: {:5}  coverage {:.2}%",
            label,
            run.missed(),
            100.0 * run.coverage()
        );
        series.push((label, curve));
    }
    let refs: Vec<(&str, &[f64])> =
        series.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    println!("{}", plot::ascii(&refs, 90, 16));
    print!("vectors:");
    for c in &checkpoints {
        print!(" {c}");
    }
    println!();
}

// ---------------------------------------------------------------- extras

/// Beyond the paper's figures: quantify Section 5's "serious missed
/// fault" claim over *all* misses, per generator, using the
/// near-redundancy analysis the paper proposes in its conclusion.
fn severity() {
    banner("Severity of missed faults under an operating sine (paper Section 5, quantified)");
    let d = paper_designs().remove(0);
    let session = shared_session(d.name()).expect("registry design");
    let mut sine = tpg::Sine::new(12, 0.85, 0.015).expect("sine");
    let stimulus: Vec<i64> = (0..2048).map(|_| d.align_input(sine.next_word())).collect();
    let mut rows = Vec::new();
    for name in SECTION8_GENERATORS {
        let mut gen = generator(name);
        let run = run_session(session, &mut *gen, &run_config(SECTION8_VECTORS));
        let missed = run.result.missed();
        let (_, summary) = bist_core::analysis::assess_missed(session, &missed, &stimulus);
        rows.push(vec![
            name.to_string(),
            missed.len().to_string(),
            summary.serious.to_string(),
            summary.activated_only.to_string(),
            summary.near_redundant.to_string(),
        ]);
    }
    println!("LP design, 4k-vector tests; stimulus: 0.85-amplitude sine at 0.015 fs");
    println!(
        "{}",
        table::render(
            &["generator", "missed", "serious", "activated-only", "near-redundant"],
            &rows
        )
    );
    println!("'serious' = the sine visibly corrupts the output — the paper's Fig. 2 escape class");
}

/// The paper's conclusion lists coverage boosters beyond the mixed
/// scheme; this experiment measures two of them on the LP design:
/// longer sequences from *larger* LFSRs (no input cycling) and a
/// deterministic tuned phase (amplitude-swept passband sine).
fn extensions() {
    banner(
        "Extensions (paper Conclusion): larger LFSRs and a deterministic tuned phase (LP design)",
    );
    let d = paper_designs().remove(0);
    let session = shared_session(d.name()).expect("registry design");
    let mut rows = Vec::new();

    let mut run_one = |label: &str, gen: &mut dyn TestGenerator, vectors: usize| {
        let run = run_session(session, gen, &run_config(vectors));
        rows.push(vec![
            label.to_string(),
            vectors.to_string(),
            run.missed().to_string(),
            format!("{:.3}%", 100.0 * run.coverage()),
        ]);
        run.missed()
    };

    // Baselines.
    run_one("LFSR-D 12-bit", &mut *generator("LFSR-D"), SECTION8_VECTORS);
    // 12-bit sequences cycle after 4095 vectors: quadrupling the length
    // replays patterns.
    run_one("LFSR-D 12-bit", &mut *generator("LFSR-D"), 4 * SECTION8_VECTORS);
    // A 16-bit decorrelated LFSR resized to 12 bits never cycles here.
    let wide = tpg::Decorrelated::maximal(16, tpg::ShiftDirection::LsbToMsb).expect("16-bit LFSR");
    let mut wide12 = tpg::Resized::new(Box::new(wide), 12).expect("resize to 12");
    run_one("LFSR-D 16-bit (top 12)", &mut wide12, 4 * SECTION8_VECTORS);

    // The mixed scheme, then mixed + deterministic tuned phase.
    run_one(
        "LFSR-1/LFSR-M mixed",
        &mut *generator(&format!("Mixed@{SECTION8_VECTORS}")),
        2 * SECTION8_VECTORS,
    );
    let tuned = bist_core::selection::tuned_sweep_for(&d).expect("tuned sweep");
    let mixed = generator(&format!("Mixed@{SECTION8_VECTORS}"));
    let mut three_phase =
        tpg::Mixed::new(mixed, Box::new(tuned), 2 * SECTION8_VECTORS as u64).expect("widths match");
    run_one("mixed + ZoneSweep phase", &mut three_phase, 3 * SECTION8_VECTORS);

    println!("{}", table::render(&["scheme", "vectors", "missed", "coverage"], &rows));
}

/// The "more aggressive scaling techniques, when appropriate" ablation:
/// tighter claimed ranges trim more sign cells and shrink the hard-fault
/// residue, at the cost of output corruption when real excursions exceed
/// the claim. Both sides of the trade-off are measured.
fn scaling() {
    banner("Scaling-policy ablation (paper Conclusion): testability vs overflow risk (LP design)");
    let base_spec = filters::FilterSpec {
        name: "LP".into(),
        band: dsp::firdesign::BandKind::Lowpass { cutoff: 0.04 },
        taps: 60,
        input_bits: 12,
        coef_frac_bits: 15,
        max_csd_digits: 4,
        width: 16,
        kaiser_beta: 5.5,
    };
    let reference = filters::FilterDesign::elaborate(base_spec.clone()).expect("worst-case design");
    let mut white = tpg::IdealWhite::new(12).expect("white");
    let abuse: Vec<i64> = (0..8192).map(|_| white.next_word()).collect();
    let reference_out = fault_free_run(&reference, &abuse);

    let mut rows = Vec::new();
    let policies: Vec<(String, filters::ScalingPolicy)> = vec![
        ("worst-case (paper)".into(), filters::ScalingPolicy::WorstCase),
        ("statistical k=4".into(), filters::ScalingPolicy::Statistical { k_rms: 4.0 }),
        ("statistical k=2.5".into(), filters::ScalingPolicy::Statistical { k_rms: 2.5 }),
        ("statistical k=1.5".into(), filters::ScalingPolicy::Statistical { k_rms: 1.5 }),
    ];
    for (label, policy) in policies {
        let d = filters::FilterDesign::elaborate_with(base_spec.clone(), policy)
            .expect("design elaborates");
        let session = BistSession::new(&d).expect("session");
        let mut gen = generator("LFSR-D");
        let run = run_session(&session, &mut *gen, &run_config(SECTION8_VECTORS));
        let out = fault_free_run(&d, &abuse);
        let corrupted = out.iter().zip(&reference_out).filter(|(a, b)| a != b).count();
        rows.push(vec![
            label,
            session.universe().len().to_string(),
            run.missed().to_string(),
            format!("{:.3}%", 100.0 * run.coverage()),
            format!("{:.3}%", 100.0 * corrupted as f64 / abuse.len() as f64),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "policy",
                "universe",
                "missed (LFSR-D @4k)",
                "coverage",
                "corrupted cycles (white abuse)"
            ],
            &rows
        )
    );
    println!("(corruption measured against the worst-case design on 8k full-scale white vectors)");
}

/// Ripple-carry vs carry-save accumulation (paper Section 3: the
/// frequency-domain analysis "applies to circuits implemented using
/// either ripple-carry or carry-save adders"): same coefficients, same
/// generators, both architectures.
fn csa() {
    banner("Architecture comparison: ripple-carry vs carry-save vs folded-symmetric LP (paper Section 3)");
    let mut rows = Vec::new();
    for design in ["LP", "LP-CSA", "LP-SYM"] {
        let session = shared_session(design).expect("registry design");
        let d = session.design();
        let s = d.netlist().stats();
        let mut row = vec![
            d.name().to_string(),
            format!("{}+{}csa", s.adders + s.subtractors, s.csa_stages),
            s.registers.to_string(),
            session.universe().len().to_string(),
        ];
        for name in ["LFSR-1", "LFSR-D"] {
            let mut gen = generator(name);
            let run = run_session(session, &mut *gen, &run_config(SECTION8_VECTORS));
            row.push(run.missed().to_string());
        }
        rows.push(row);
    }
    println!(
        "{}",
        table::render(
            &["design", "adders", "regs", "faults", "LFSR-1 missed", "LFSR-D missed"],
            &rows
        )
    );
    println!("(the LFSR-1-vs-LFSR-D gap — the compatibility effect — shows on every architecture;");
    println!(" LP-SYM's larger absolute counts reflect weaker redundancy pruning: its multiplier");
    println!(
        " cones hang off pre-adders of two delayed samples, outside the exact input-cone analysis)"
    );
}

fn fault_free_run(d: &FilterDesign, words: &[i64]) -> Vec<i64> {
    let mut sim = rtl::sim::BitSlicedSim::new(d.netlist());
    words
        .iter()
        .map(|&w| {
            sim.step(d.align_input(w));
            sim.lane_value(d.output(), 0)
        })
        .collect()
}

/// Engine ablation: what each analysis stage contributes to the fault
/// universe, and what the stage schedule buys in run time.
fn ablation() {
    banner("Engine ablation: universe pruning stages and fault-dropping schedule (LP design)");
    let d = paper_designs().remove(0);
    let netlist = d.netlist();
    let ranges = d.claimed_ranges();
    let reach = rtl::reachability::Reachability::analyze(netlist, 12);

    let plain = faultsim::FaultUniverse::enumerate(netlist, ranges);
    let pruned = faultsim::FaultUniverse::enumerate_pruned(netlist, ranges, &reach);
    println!("fault universe (collapsed classes):");
    println!(
        "  range analysis only:           {} ({} uncollapsed)",
        plain.len(),
        plain.uncollapsed_len()
    );
    println!(
        "  + input-cone reachability:     {} ({} uncollapsed)",
        pruned.len(),
        pruned.uncollapsed_len()
    );

    let mut gen = generator("LFSR-D");
    gen.reset();
    let inputs: Vec<i64> = (0..SECTION8_VECTORS).map(|_| d.align_input(gen.next_word())).collect();
    let mut rows = Vec::new();
    for (label, boundaries) in [
        ("no dropping stages", vec![]),
        ("drop @64", vec![64]),
        ("drop @64/256/1024 (default)", faultsim::StageSchedule::new().into_boundaries()),
        ("drop @16/64/256/1024", vec![16, 64, 256, 1024]),
    ] {
        let schedule = faultsim::StageSchedule::with_boundaries(boundaries);
        let t = std::time::Instant::now();
        let result = faultsim::ParallelFaultSimulator::new(netlist, &pruned)
            .with_schedule(schedule)
            .run(&inputs);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}s", t.elapsed().as_secs_f64()),
            result.missed().len().to_string(),
        ]);
    }
    println!(
        "{}",
        table::render(&["schedule", "wall time", "missed (identical by construction)"], &rows)
    );
}

// ------------------------------------------------------------------ util

/// The accumulation adder of tap `k` (falling back to the nearest tap
/// with an accumulator).
fn tap_acc(d: &FilterDesign, k: usize) -> rtl::NodeId {
    d.tap_accumulator(k)
        .or_else(|| {
            (1..10).find_map(|off| {
                d.tap_accumulator(k + off).or_else(|| d.tap_accumulator(k.saturating_sub(off)))
            })
        })
        .expect("some tap near k has an accumulator")
}
