//! Fig. 8: error-tolerance analysis and BER_th extraction.
use sparkxd_bench::{exec_from_env, experiments::fig08, Scale};

fn main() {
    let scale = Scale::from_env();
    let exec = exec_from_env();
    println!("Fig. 8 — error-tolerance analysis (scale: {})", scale.label);
    println!("{}", fig08::print(&fig08::run(&scale, &exec, 42)));
}
