//! Thin binary wrapper; see `lib.rs` for the command implementations.

use phastlane_cli::{args, commands};
use std::process::ExitCode;

fn main() -> ExitCode {
    // A failure prints its message and a pointer to the usage text, not
    // the usage text itself: a regression list, a refused preflight or
    // an HTTP status must stay the last thing in a CI log.
    let parsed = args::Parsed::parse(std::env::args().skip(1));
    match parsed.and_then(|p| commands::dispatch(&p)) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}", e.to_string().trim_end());
            eprintln!("try `phastlane help`");
            ExitCode::FAILURE
        }
    }
}
