//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`:
//! run one workload and print its result as the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::alloc::CountingAllocator;
use perfbench::metrics::result_line;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Where traced runs write their spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn main() -> ExitCode {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&args);
    for line in &outcome.notes {
        println!("{}: {line}", args.workload);
    }
    for error in &outcome.tally.errors {
        println!("{}: CHECK FAILED: {error}", args.workload);
    }
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(TRACE_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => {
                println!("{}: {} spans written to {}", args.workload, tracer.spans().len(), path.display())
            }
            Err(error) => {
                eprintln!("perfbench: writing {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match result_line(&outcome.tally, &outcome.metrics) {
        Ok(line) => {
            println!("{line}");
            if outcome.tally.failed == 0 {
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
