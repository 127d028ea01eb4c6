//! Table rendering, CSV output and the command line shared by the
//! experiment binaries.

use std::io::Write;
use std::path::PathBuf;

/// Command-line options shared by every experiment binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    pub csv: Option<PathBuf>,
    pub quick: bool,
}

/// Split a command line (program name already stripped) into the shared
/// options — `--quick` and `--csv <path>` — and the positional arguments,
/// in order. Any other `-` argument, or `--csv` without its path, is an
/// `Err` carrying the one-line message to print.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<(Args, Vec<String>), String> {
    let mut out = Args::default();
    let mut names = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--csv" => out.csv = Some(it.next().ok_or("--csv needs a path")?.into()),
            flag if flag.starts_with('-') => return Err(format!("unknown argument: {flag}")),
            _ => names.push(a),
        }
    }
    Ok((out, names))
}

/// [`parse`] over `std::env::args` for `repro`: `--help` prints the usage
/// line and exits 0, a malformed command line prints its error and exits 2.
pub fn parse_args_with_names() -> (Args, Vec<String>) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: <experiment> [--quick] [--csv <path>]");
        std::process::exit(0);
    }
    parse(argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// [`parse_args_with_names`] for binaries that take no positional
/// arguments: any name is a usage error too.
pub fn parse_args() -> Args {
    let (args, names) = parse_args_with_names();
    if let Some(other) = names.first() {
        eprintln!("unknown argument: {other}");
        std::process::exit(2);
    }
    args
}

/// A titled table with aligned text rendering and CSV dumping.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            s
        };
        println!("{}", line(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for r in &self.rows {
            println!("{}", line(r));
        }
    }

    /// CSV rendering (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut s = format!("# {}\n{}\n", self.title, self.headers.join(","));
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        s
    }
}

/// Print all tables; append them to the CSV file if requested.
pub fn emit(args: &Args, tables: &[Table]) {
    for t in tables {
        t.print();
    }
    if let Some(path) = &args.csv {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open {path:?}: {e}"));
        for t in tables {
            writeln!(f, "{}", t.to_csv()).expect("csv write failed");
        }
        eprintln!("[csv appended to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_dumps() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into(), "1.5".into()]);
        t.row(vec!["long-label".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# demo\na,b\n"));
        assert!(csv.contains("x,1.5"));
        t.print(); // should not panic
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn parse_rejects_malformed_and_keeps_names_in_order() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse(argv(&["coll", "--csv"])),
            Err("--csv needs a path".into())
        );
        assert_eq!(
            parse(argv(&["--check", "x.json"])),
            Err("unknown argument: --check".into())
        );
        let (args, names) =
            parse(argv(&["fig_3_3", "--quick", "coll", "--csv", "p", "serve"])).unwrap();
        assert_eq!(
            args,
            Args {
                csv: Some("p".into()),
                quick: true
            }
        );
        assert_eq!(names, ["fig_3_3", "coll", "serve"]);
    }
}
