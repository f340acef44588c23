//! Input determinism, the percentile function, and the metric names that
//! `BENCHMARK.json` declares.

use perfbench::inputs::{burst_requests, delta_batch, is_checked, serve_schedule, vector};
use perfbench::report::{end_to_end, per_layer_catalog, quiet, Phase, END_TO_END};
use perfbench::stats::{median, percentile, rank, samples_beyond};

#[test]
fn one_seed_yields_identical_arrival_times_and_routing() {
    let a = serve_schedule(42, 0, 1000.0, 2.0, 4, 4, 8);
    let b = serve_schedule(42, 0, 1000.0, 2.0, 4, 4, 8);
    assert_eq!(a, b);
    assert!(a.len() > 1500 && a.len() < 2500, "{} arrivals", a.len());
    assert!(a.windows(2).all(|w| w[0].at_s < w[1].at_s));
    assert!(a
        .iter()
        .all(|r| r.at_s < 2.0 && r.tenant < 4 && r.matrix < 4 && r.operand < 8));
    assert_ne!(a, serve_schedule(43, 0, 1000.0, 2.0, 4, 4, 8));
    assert_ne!(a, serve_schedule(42, 1, 1000.0, 2.0, 4, 4, 8));
}

#[test]
fn one_seed_yields_identical_burst_routing() {
    let take = |seed, phase| {
        burst_requests(seed, phase, 4, 4, 8)
            .take(500)
            .collect::<Vec<_>>()
    };
    let a = take(42, 0);
    assert_eq!(a, take(42, 0));
    assert_ne!(a, take(43, 0));
    assert_ne!(a, take(42, 1));
    assert!(a
        .iter()
        .all(|r| r.tenant < 4 && r.matrix < 4 && r.operand < 8));
}

#[test]
fn one_seed_yields_identical_operands() {
    assert_eq!(vector(7, 1, 3, 500), vector(7, 1, 3, 500));
    assert_ne!(vector(7, 1, 3, 500), vector(8, 1, 3, 500));
    assert_ne!(vector(7, 1, 3, 500), vector(7, 1, 4, 500));
    assert_ne!(vector(7, 1, 3, 500), vector(7, 2, 3, 500));
    assert!(vector(7, 1, 3, 500).iter().all(|v| (-1.0..1.0).contains(v)));
    let picks: Vec<bool> = (0..64).map(|op| is_checked(7, op, 8)).collect();
    assert_eq!(
        picks,
        (0..64).map(|op| is_checked(7, op, 8)).collect::<Vec<_>>()
    );
}

#[test]
fn one_seed_yields_identical_delta_streams() {
    let a = delta_batch(5, 17, 100..200, 300..316, 40);
    assert_eq!(a, delta_batch(5, 17, 100..200, 300..316, 40));
    assert_ne!(a, delta_batch(6, 17, 100..200, 300..316, 40));
    assert_ne!(a, delta_batch(5, 18, 100..200, 300..316, 40));
    assert!(a
        .iter()
        .all(|d| (100..200).contains(&d.row) && (300..316).contains(&d.col)));
}

#[test]
fn nearest_rank_percentiles_on_known_samples() {
    // 1..=100 in scrambled order.
    let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.9), Some(90.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&v, 0.001), Some(1.0));
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(100, 0.99), 1);
    assert_eq!(samples_beyond(1000, 0.99), 10);

    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
    assert_eq!(rank(4, 0.5), 2);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(percentile(&[10.0, 20.0, 30.0], 0.9), Some(30.0));
    assert_eq!(percentile(&[10.0, 20.0, 30.0], 0.6), Some(20.0));
}

#[test]
fn end_to_end_averages_the_quietest_segments() {
    let segment = |lat: &[f64], seconds: f64, steal: f64| {
        let mut p = Phase {
            seconds,
            steal,
            ..Phase::default()
        };
        for &l in lat {
            p.complete_served(l, true);
        }
        p
    };
    let mut slow = segment(&[9.0, 70.0, 80.0], 3.0, 0.30);
    slow.complete_served(0.5, false);
    let segments = [
        segment(&[1.0, 2.0, 3.0], 1.0, 0.01),
        slow,
        segment(&[4.0, 5.0, 6.0, 60.0], 2.0, 0.02),
        segment(&[7.0, 8.0], 0.5, 0.20),
    ];
    // The second set-up lost 10% to steal; the median of the others is
    // the lower middle.
    let (m, lines) = end_to_end(
        &[0.3, 0.1, 0.2, 0.4],
        &[0.0, 0.1, 0.0, 0.02],
        &segments,
        12.0,
    );
    let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
    assert_eq!(m.len(), END_TO_END.len());
    assert_eq!(get("setup_s"), Some(0.3));
    // Only the first and the third lose at most 5% to steal: 3 and 2 ops/s.
    assert_eq!(get("ops_per_s"), Some(2.5));
    // Their medians are 2 and 5 ms.
    assert_eq!(get("latency_p50_ms"), Some(3.5));
    // Replies over 50 ms miss the limit: 3 and 1.5 good per second.
    assert_eq!(get("goodput_rps"), Some(2.25));
    assert_eq!(get("peak_rss_mb"), Some(12.0));
    // Thirteen pooled samples leave fewer than ten beyond the p90 and p99.
    assert!(lines
        .iter()
        .any(|l| l.starts_with("pooled latency_p99_ms: omitted")));
}

#[test]
fn quiet_keeps_the_calm_ones_or_the_least_stolen_eighth() {
    // Everything at most 5% stolen counts, in order of steal.
    assert_eq!(quiet(&[0.01, 0.50, 0.0, 0.05, 0.0]), [2, 4, 0, 3]);
    // Too few calm ones: the least stolen eighth, rounded up.
    let contended = [0.20, 0.10, 0.10, 0.15, 0.02, 0.30, 0.40, 0.08, 0.09];
    assert_eq!(quiet(&contended), [4, 7]);
    assert_eq!(quiet(&[0.20]), [0]);
    assert!(quiet(&[]).is_empty());
}

#[test]
fn end_to_end_takes_rates_from_the_burst() {
    let mut open = Phase {
        seconds: 2.0,
        ..Phase::default()
    };
    for l in [1.0, 2.0, 3.0] {
        open.complete_served(l, true);
    }
    let mut burst = Phase {
        seconds: 1.0,
        ..Phase::default()
    };
    for l in [10.0, 20.0, 30.0, 40.0, 60.0] {
        burst.complete_served(l, true);
    }
    open.burst = Some(Box::new(burst));
    let (m, _) = end_to_end(&[0.1], &[0.0], &[open], 5.0);
    let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
    // Rates from the burst: 5 replies, 4 within the limit, in 1 s.
    assert_eq!(get("ops_per_s"), Some(5.0));
    assert_eq!(get("goodput_rps"), Some(4.0));
    // Latency from the open-loop phase.
    assert_eq!(get("latency_p50_ms"), Some(2.0));
}

#[test]
fn closed_loop_goodput_has_no_latency_limit() {
    let mut p = Phase {
        seconds: 1.0,
        ..Phase::default()
    };
    p.complete(80.0, true);
    p.complete(10.0, false);
    assert_eq!(p.goodput_rps(), 1.0);
    assert_eq!(p.ops_per_s(), 2.0);
}

/// `BENCHMARK.json` declares exactly the metrics the binary emits.
#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(section("end_to_end"), e2e);
    let layers: Vec<String> = per_layer_catalog().into_iter().map(|(n, _)| n).collect();
    assert_eq!(section("per_layer"), layers);
}
