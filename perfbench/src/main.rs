//! The repository benchmark: three workloads against the public APIs of
//! `datasets`, `graphcore`, `graphhd`, `hdvec`, `parallel`, `engine` and
//! `netserve`, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_dd|serve_socket|serve_manyclass> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Standard output carries a human-readable report (metrics with units
//! and sample counts, the host record, any failed check) and, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans to
//! `perfbench/traces/<workload>-seed<n>.jsonl`. The exit code is 0 only
//! when every check passed.

mod cli;
mod host;
#[cfg(test)]
mod json;
mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let cpu_before = host::cpu_times();
    let tracer = trace::Tracer::new(args.trace);
    let outcome = args.workload.run(&args, &tracer);
    let steal = cpu_before
        .zip(host::cpu_times())
        .and_then(|(before, after)| host::steal_share(before, after));
    let host_record = host::record(steal);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {{{host_record}}}");
    println!(
        "end-to-end{}:",
        if args.trace { " (traced half)" } else { "" }
    );
    print!("{}", outcome.report.table(metrics::END_TO_END));
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut problems = outcome.problems;
    let catalog = if args.trace {
        println!("per-layer:");
        print!("{}", outcome.report.table(metrics::PER_LAYER));
        let spans = tracer.spans();
        println!("self time by layer (ms):");
        for (layer, ns) in trace::self_time_by_layer(&spans) {
            println!("  {layer:<10} {:>12.3}", ns as f64 / 1e6);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.jsonl", args.workload.name(), args.seed);
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, {host_record}",
            args.workload.name(),
            args.seed,
            args.seconds
        );
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::render(&spans, &header)))
        {
            Ok(()) => println!("trace: {} spans written to {path}", spans.len()),
            Err(e) => problems.push(format!("writing {path}: {e}")),
        }
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for problem in &problems {
        println!("problem: {problem}");
    }
    match outcome.report.result_line(
        catalog,
        problems.is_empty(),
        outcome.attempted,
        outcome.failed,
    ) {
        Ok(line) => {
            println!("{line}");
            if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
