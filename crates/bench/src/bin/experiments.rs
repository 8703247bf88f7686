//! The experiment driver: regenerates every figure of the paper.
//!
//! ```text
//! cargo run -p dbs3-bench --release --bin experiments -- all
//! cargo run -p dbs3-bench --release --bin experiments -- fig15
//! cargo run -p dbs3-bench --release --bin experiments -- fig16 --smoke
//! ```
//!
//! Subcommands: `fig8`, `fig9`, `fig12`, `fig13`, `fig14`, `fig15`, `fig16`,
//! `fig17`, `fig18`, `fig19`, `ablation-static`, `ablation-affinity`,
//! `ablation-bound`, `all`. The `--smoke` flag switches to the reduced scale
//! whose output `tests/golden/figures_smoke.txt` pins.

use dbs3_bench::experiments as exp;
use dbs3_bench::ExperimentScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke {
        ExperimentScale::Smoke
    } else {
        ExperimentScale::Paper
    };
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let started = std::time::Instant::now();
    match command.as_str() {
        "fig8" | "fig9" => fig08(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig17" => fig17(scale),
        "fig18" => fig18(scale),
        "fig19" => fig19(scale),
        "ablation-static" => ablation_static(scale),
        "ablation-affinity" => ablation_affinity(scale),
        "ablation-bound" => ablation_bound(scale),
        "ablation-granule" => ablation_granule(scale),
        "all" => {
            fig08(scale);
            fig12(scale);
            fig13(scale);
            fig14(scale);
            fig15(scale);
            fig16(scale);
            fig17(scale);
            fig18(scale);
            fig19(scale);
            ablation_static(scale);
            ablation_affinity(scale);
            ablation_bound(scale);
            ablation_granule(scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "available: fig8 fig9 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 \
                 ablation-static ablation-affinity ablation-bound ablation-granule all [--smoke]"
            );
            std::process::exit(2);
        }
    }
    eprintln!("# completed in {:.1} s", started.elapsed().as_secs_f64());
}

fn fig08(scale: ExperimentScale) {
    exp::print_fig08(&exp::fig08_remote_access(scale));
    println!();
}

fn fig12(scale: ExperimentScale) {
    exp::print_fig12(&exp::fig12_assocjoin_skew(scale));
    println!();
}

fn fig13(scale: ExperimentScale) {
    exp::print_fig13(&exp::fig13_idealjoin_skew(scale));
    println!();
}

fn fig14(scale: ExperimentScale) {
    exp::print_fig14(&exp::fig14_assocjoin_speedup(scale));
    println!();
}

fn fig15(scale: ExperimentScale) {
    let degree = match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => 200,
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => 20,
    };
    exp::print_fig15(&exp::fig15_idealjoin_speedup(scale), degree);
    println!();
}

fn fig16(scale: ExperimentScale) {
    exp::print_fig16(&exp::fig16_partitioning_overhead(scale));
    println!();
}

fn fig17(scale: ExperimentScale) {
    exp::print_fig17(&exp::fig17_index_partitioning(scale));
    println!();
}

fn fig18(scale: ExperimentScale) {
    exp::print_fig18(&exp::fig18_skew_vs_partitioning(scale));
    println!();
}

fn fig19(scale: ExperimentScale) {
    let t0 = exp::fig19_t0_reference(scale);
    exp::print_fig19(&exp::fig19_saved_time(scale), t0);
    println!();
}

fn ablation_static(scale: ExperimentScale) {
    exp::print_ablation_static(&exp::ablation_static_baseline(scale));
    println!();
}

fn ablation_affinity(scale: ExperimentScale) {
    exp::print_ablation_affinity(&exp::ablation_affinity(scale));
    println!();
}

fn ablation_bound(scale: ExperimentScale) {
    exp::print_ablation_bound(&exp::ablation_bound(scale));
    println!();
}

fn ablation_granule(scale: ExperimentScale) {
    exp::print_ablation_granule(&exp::ablation_granule(scale));
    println!();
}
