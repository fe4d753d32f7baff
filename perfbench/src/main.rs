use halox_perfbench::{chrome_json, result_json, run, scratch_dir, Args, USAGE};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = scratch_dir();
    let report = run(&args, &scratch);

    println!(
        "== halox perfbench: {} seed {} seconds {} trace {} ({} cores) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    let fail_ratio = report.tally.failed as f64 / report.tally.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_ratio", fail_ratio, report.tally.failed, report.tally.attempted
    );
    for note in &report.tally.notes {
        println!("  failure: {note}");
    }
    if args.trace {
        let path = scratch.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&scratch).and_then(|()| {
            let text = serde_json::to_string(&chrome_json(&report)).expect("JSON values serialize");
            std::fs::write(&path, text)
        });
        match written {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report));
}
