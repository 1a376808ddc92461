//! `coopckpt` — command-line front end for the cooperative-checkpointing
//! simulator and analysis of Hérault et al. (IPDPS 2018).
//!
//! ```text
//! coopckpt table1                              # the APEX workload table
//! coopckpt theory  [--platform cielo] [--bandwidth 40] [--mtbf-years 2]
//! coopckpt run     [--scenario file.json] [--strategy least-waste] ...
//! coopckpt sweep   --axis bandwidth_gbps --values 40,80,120,160 ...
//! coopckpt suite   scenarios/paper_grid.json [--cache .campaign]
//! coopckpt compare cold.json warm.json [--tolerance 0.05]
//! coopckpt workload [--seed 1] [--span-days 60]
//! ```
//!
//! Every subcommand compiles its flags into a declarative `Scenario`
//! (`--scenario <file.json>` loads one; the remaining flags override its
//! fields) and reports through one writer: `--format text|csv|json`.

mod args;
mod commands;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if parsed.is_set("help") {
        let page = parsed
            .command
            .as_deref()
            .and_then(commands::help_for)
            .unwrap_or_else(|| commands::USAGE.to_string());
        println!("{page}");
        return;
    }
    // Reject typo'd flags (with a nearest-flag suggestion) instead of
    // silently ignoring them — but only for recognized commands, so a
    // misspelled command is reported as such, not as an unknown flag.
    if let Some(cmd) = parsed.command.as_deref() {
        if commands::COMMANDS.contains(&cmd) {
            if let Err(e) = parsed.check_known(commands::known_flags(cmd)) {
                eprintln!("error: {e}");
                eprintln!("run `coopckpt {cmd} --help` for the accepted flags");
                std::process::exit(2);
            }
        }
    }
    // Telemetry is opt-in: `--telemetry <out.jsonl>` wins over the
    // COOPCKPT_TELEMETRY environment variable; neither leaves the
    // zero-cost disabled path in place.
    let telemetry = match parsed.get("telemetry") {
        Some(path) => coopckpt_obs::init(Some(std::path::Path::new(path))),
        None => coopckpt_obs::init_from_env(),
    };
    if let Err(e) = telemetry {
        eprintln!("error: telemetry: {e}");
        std::process::exit(2);
    }
    let outcome = match parsed.command.as_deref() {
        Some("table1") => commands::table1(&parsed),
        Some("theory") => commands::theory(&parsed),
        Some("run") => commands::run(&parsed),
        Some("sweep") => commands::sweep(&parsed),
        Some("suite") => commands::suite(&parsed),
        Some("compare") => commands::compare(&parsed),
        Some("workload") => commands::workload(&parsed),
        Some("trace") => commands::trace(&parsed),
        Some("help") | None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
