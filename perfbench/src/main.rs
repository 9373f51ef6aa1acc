//! `perfbench`: runs one benchmark workload; see `perfbench --help`.

use perfbench::cli::{self, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report.render(args.trace) {
        Ok(text) => {
            print!("{text}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers; see the result line");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
