//! Golden paper figures: every simulator-driven `experiments` subcommand at
//! smoke scale must print exactly what `golden/figures_smoke.txt` records.
//!
//! The simulator runs in virtual time with seeded shuffles, so its output is
//! byte-for-byte deterministic; any difference is a behaviour change in the
//! scheduler, the simulator or the experiment harness, not noise. The
//! affinity ablation is left out because it times real threads.
//!
//! To regenerate the golden file after an intended change:
//!
//! ```text
//! for c in fig8 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 \
//!          ablation-static ablation-bound ablation-granule; do
//!     cargo run -q -p dbs3-bench --release --bin experiments -- $c --smoke
//! done > crates/bench/tests/golden/figures_smoke.txt
//! ```

use std::process::Command;

const SUBCOMMANDS: [&str; 12] = [
    "fig8",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "ablation-static",
    "ablation-bound",
    "ablation-granule",
];

const GOLDEN: &str = include_str!("golden/figures_smoke.txt");

#[test]
fn simulated_figures_match_the_golden_output() {
    let mut actual = String::new();
    for command in SUBCOMMANDS {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([command, "--smoke"])
            .output()
            .expect("experiments binary runs");
        assert!(
            output.status.success(),
            "`experiments {command} --smoke` failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        actual.push_str(&String::from_utf8(output.stdout).expect("stdout is UTF-8"));
    }
    for (line, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "figure output differs at line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "figure output has a different number of lines"
    );
}
