//! Runs every table/figure reproduction in sequence (the one-shot
//! EXPERIMENTS.md regeneration driver). Each experiment also exists as its
//! own binary; this driver shells out to them so their stdout formatting is
//! reused verbatim.
//!
//! Set `TCG_PROFILE=1` to additionally emit Perfetto traces, metrics dumps
//! and nsight-style kernel tables under `results/` for the experiments that
//! support profiling (fig7a/b/c, table3) — the env var is inherited by the
//! child processes.

use std::process::Command;

fn main() {
    if tcg_profile::ProfileLevel::from_env().enabled() {
        eprintln!("[TCG_PROFILE set: profiling artifacts will be written to results/]");
    }
    let experiments = [
        "table1",
        "table2",
        "table3",
        "table5",
        "fig6a",
        "fig6b",
        "fig6c",
        "fig7a",
        "fig7b",
        "fig7c",
        "ablation_device",
        "ablation_geometry",
        "ablation_cyclesim",
        "ext_models",
    ];
    for exp in experiments {
        println!("\n{}\n==== {exp} ====\n", "=".repeat(72));
        let status = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(exp),
        )
        .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("[{exp} exited with {s}]"),
            Err(e) => eprintln!("[{exp} failed to launch: {e} — run `cargo run --release -p tcg-bench --bin {exp}`]"),
        }
    }
}
