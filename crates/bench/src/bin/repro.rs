//! Regenerate thesis tables / figures by name: `repro <name>... [--quick]
//! [--csv <path>]`. With no name, lists the known ones and exits non-zero.

use hupc_bench::exp::{find, EXPERIMENTS};

fn main() {
    let (args, names) = hupc_bench::report::parse_args_with_names();
    if names.is_empty() {
        eprintln!("usage: repro <name>... [--quick] [--csv <path>]; names:");
        for (name, _) in &EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    // Resolve every name before running any, so a typo fails fast.
    let chosen: Vec<_> = names
        .iter()
        .map(|n| {
            find(n).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();
    for (_, run) in chosen {
        hupc_bench::report::emit(&args, &run(args.quick));
    }
}
