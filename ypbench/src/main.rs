//! Command line: `ypbench --workload NAME --seed N --seconds N --trace 0|1`,
//! run from the repository root.  Prints a provenance line, then the
//! result as one JSON object on the last line of standard output; exits
//! non-zero when a correctness check fails.

use std::process::ExitCode;

use ypbench::run::{repo_root, run, Options};

fn main() -> ExitCode {
    let outcome = Options::parse(std::env::args().skip(1))
        .and_then(|opts| Ok((repo_root()?, opts)))
        .and_then(|(root, opts)| run(&root, &opts));
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ypbench: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &report.problems {
        eprintln!("ypbench: check failed: {problem}");
    }
    println!("provenance {}", report.provenance.to_compact());
    println!("{}", report.result_json().to_compact());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
