//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host descriptor, plan provenance and a human-readable report,
//! then, as the last line of standard output, one JSON object with the
//! run's counts and metrics: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use perfbench::host::{self, HostInfo};
use perfbench::report::{self, Metric};
use perfbench::workloads::{self, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`; expected one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    let ctx_threads = sparseopt::core::pool::ExecCtx::host().nthreads();
    let host = HostInfo::probe(ctx_threads);
    println!("{}", host.describe());
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
        triad_gbs: host.triad_gbs,
    };
    let ticks_before = host::cpu_ticks();
    let result = workloads::run(&args.workload, &cfg)?;
    // Steal explains spread between identical runs on a shared host.
    if let Some(steal) = host::steal_since(ticks_before) {
        println!(
            "host: steal {:.1}% of host CPU time during the workload",
            100.0 * steal
        );
    }

    let m = &result.measured;
    let peak = perfbench::stats::median(&m.peak_rss_mib);
    let (e2e, tails) = report::end_to_end(&m.setup_s, &m.setup_steal, &m.segments, peak);
    let counts = result.measured.counts;
    println!(
        "counts: sent={} succeeded={} failed={} (wrong={}) fail_ratio={:.6}",
        counts.attempted,
        counts.succeeded,
        counts.failed,
        counts.wrong,
        counts.fail_ratio()
    );
    let setups: Vec<String> = m
        .setup_s
        .iter()
        .zip(&m.setup_steal)
        .map(|(s, steal)| format!("{s:.4}@{steal:.3}"))
        .collect();
    println!("setup_s samples (seconds@steal): [{}]", setups.join(", "));
    let peaks: Vec<String> = m.peak_rss_mib.iter().map(|p| format!("{p:.1}")).collect();
    println!("peak_rss_mb samples: [{}]", peaks.join(", "));
    for line in &tails {
        println!("report: {line}");
    }
    let metrics: Vec<Metric> = if cfg.trace {
        let mut layers = result.layers;
        layers.insert("host.triad_gbs".into(), host.triad_gbs);
        report::per_layer(&layers)
    } else {
        e2e
    };
    for m in &metrics {
        println!("metric: {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = counts.wrong == 0;
    println!("{}", report::result_line(correct, &counts, &metrics));
    Ok(())
}
