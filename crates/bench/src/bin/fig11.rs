//! Fig. 11: accuracy across BERs, network sizes and datasets.
use sparkxd_bench::{exec_from_env, experiments::fig11, Scale};

fn main() {
    let scale = Scale::from_env();
    let exec = exec_from_env();
    println!("Fig. 11 — accuracy grid (scale: {})", scale.label);
    println!("{}", fig11::print(&fig11::run(&scale, &exec, 42)));
}
