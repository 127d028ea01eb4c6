//! Run every experiment in `exp::EXPERIMENTS`, in order: `all_experiments
//! [--quick] [--csv <path>]`.

fn main() {
    let args = hupc_bench::parse_args();
    for (name, f) in hupc_bench::exp::EXPERIMENTS {
        eprintln!("[running {name} ...]");
        let t0 = std::time::Instant::now();
        let tables = f(args.quick);
        hupc_bench::report::emit(&args, &tables);
        eprintln!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
