use std::process::ExitCode;

use bh_benchmark::cli::{self, Command};
use bh_benchmark::{run, suite, sys};

fn main() -> ExitCode {
    let command = match cli::parse_args(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("bh-benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::One(config) => {
            let mut outcome = run::run(&config);
            outcome.info.git_rev = sys::git_rev(&cli::crate_dir().join(".."));
            println!("{}", cli::context_line(&config, &outcome));
            println!("{}", cli::result_line(&outcome));
            outcome.failed == 0
        }
        Command::All { seed, seconds, smoke } => suite::all(seed, seconds, smoke),
        Command::Repeat { runs, seconds, smoke } => suite::repeat(runs, seconds, smoke),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
