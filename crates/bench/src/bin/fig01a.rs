//! Fig. 1(a): accuracy of small vs large SNN models on the digits dataset.
use sparkxd_bench::{exec_from_env, experiments::fig01a, Scale};

fn main() {
    let scale = Scale::from_env();
    let exec = exec_from_env();
    println!(
        "Fig. 1(a) — accuracy vs model size (scale: {})",
        scale.label
    );
    println!("{}", fig01a::print(&fig01a::run(&scale, &exec, 42)));
}
