//! Smoke test of the benchmark itself: a one-second run of every workload
//! in both modes emits exactly the metrics `BENCHMARK.json` names, each
//! with its unit, and reports correct outputs; and the bitwise output
//! check rejects a reference with one flipped bit; and the estimators the
//! timing figures use behave as documented.
//!
//! Run with `cargo test --offline --release --manifest-path perfbench/Cargo.toml`.

use halox_dd::DdGrid;
use halox_engine::Engine;
use halox_md::{steepest_descent, GrappaBuilder, MinimizeOptions};
use halox_perfbench::config::{engine_config, serial, GRID};
use halox_perfbench::util::{block_median, quiet_rounds, same_output, Metrics, Spans, Tally};
use halox_perfbench::{result_json, Report, WORKLOADS};
use serde_json::Value;
use std::process::Command;
use std::time::Instant;

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_once(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_halox-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let result = run_once(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let mut got: Vec<&String> = metrics.keys().collect();
            let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            got.sort();
            names.sort();
            assert_eq!(got, names, "{workload} {section}");
            for (name, unit) in &want {
                let m = metrics.get(name).expect("checked above");
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{workload} {name} = {v}");
            }
        }
    }
}

#[test]
fn output_check_rejects_one_flipped_bit() {
    let mut start = GrappaBuilder::new(1000).seed(3).temperature(300.0).build();
    steepest_descent(&mut start, MinimizeOptions::default());
    let cfg = engine_config(5, None);
    let mut threaded = Engine::new(start.clone(), DdGrid::new(GRID), cfg.clone());
    let got = threaded.run(10);
    let mut reference = Engine::new(start, DdGrid::new(GRID), serial(&cfg));
    let want = reference.run(10);
    let (sys, energies) = (&reference.system, &want.energies);
    assert!(same_output(&threaded.system, &got.energies, sys, energies));

    let mut flipped = sys.clone();
    flipped.positions[0].x = f32::from_bits(flipped.positions[0].x.to_bits() ^ 1);
    assert!(!same_output(
        &threaded.system,
        &got.energies,
        &flipped,
        energies
    ));
    let mut flipped = sys.clone();
    flipped.velocities[7].z = f32::from_bits(flipped.velocities[7].z.to_bits() ^ 1);
    assert!(!same_output(
        &threaded.system,
        &got.energies,
        &flipped,
        energies
    ));
    let mut flipped_energies = energies.clone();
    flipped_energies[9].kinetic = f64::from_bits(flipped_energies[9].kinetic.to_bits() ^ 1);
    assert!(!same_output(
        &threaded.system,
        &got.energies,
        sys,
        &flipped_energies
    ));

    // A mismatch counts as a failed operation and makes the result incorrect.
    let mut tally = Tally::default();
    tally.fail(true, "flipped reference".into());
    let report = Report {
        metrics: Metrics::default(),
        tally,
        lines: Vec::new(),
        spans: Spans::new(Instant::now()),
        trace: None,
    };
    let result = result_json(&report);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(1));
}

#[test]
fn block_median_and_quiet_rounds() {
    // One slow block among five moves the median of block means not at all.
    let v = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0];
    let mean = |r: std::ops::Range<usize>| v[r.clone()].iter().sum::<f64>() / r.len() as f64;
    assert_eq!(block_median(v.len(), 2, mean), 1.0);
    // Fewer samples than a block make one block; a remainder joins the last.
    assert_eq!(block_median(3, 10, |r| r.len() as f64), 3.0);
    assert_eq!(block_median(7, 3, |r| r.len() as f64), 3.5);

    // At least half the rounds, the least stolen first, plus ties.
    assert_eq!(quiet_rounds(&[5, 0, 0, 7], &[10; 4], 0), vec![1, 2]);
    assert_eq!(quiet_rounds(&[0, 0, 0, 7], &[10; 4], 0), vec![0, 1, 2]);
    // ... and enough rounds to hold `min_samples` samples.
    assert_eq!(quiet_rounds(&[5, 0, 0, 7], &[10; 4], 25), vec![0, 1, 2]);
    assert_eq!(quiet_rounds(&[3, 1, 2], &[10; 3], 100), vec![0, 1, 2]);
}
