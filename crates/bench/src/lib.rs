//! `sdl-bench` — shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see README.md for the experiment index); this library holds
//! the ASCII plotting, CSV, comparison-table, statistics and flag-parsing
//! utilities they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A named series of (x, y) points for [`ascii_plot`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Glyph used for this series' points.
    pub glyph: char,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

/// Render series as a scatter plot on a character grid (x right, y up).
pub fn ascii_plot(
    series: &[Series],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    let pts = series.iter().flat_map(|s| s.points.iter());
    let (mut x_min, mut x_max, mut y_min, mut y_max) =
        (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if !x_min.is_finite() || x_max <= x_min {
        return "(no data)\n".to_string();
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            grid[row][col] = s.glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{y_label}");
    for (i, row) in grid.iter().enumerate() {
        let y_tick = y_max - (y_max - y_min) * i as f64 / (height - 1) as f64;
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{y_tick:>8.1} |{line}");
    }
    let _ = writeln!(out, "{:>9}+{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>10}{:<.1}{}{:>.1}   ({})",
        "",
        x_min,
        " ".repeat(width.saturating_sub(12)),
        x_max,
        x_label
    );
    for s in series {
        let _ = writeln!(out, "  {} = {}", s.glyph, s.label);
    }
    out
}

/// Format rows as a fixed-width table with a header rule.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * ncol;
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Emit CSV (no quoting; callers pass clean cells).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Median (sorted copy).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; NaN
/// when it is empty, as [`median`] is.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

use sdl_core::{Arg, Flags};

/// The process's command line, checked against the flags the binary
/// declares (see [`Flags::parse`]). On an error it prints the error and
/// exits with status 1.
pub fn parse_flags(declared: &[(&'static str, Arg)]) -> Flags {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let bin = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
    let args: Vec<String> = args.collect();
    Flags::parse(&bin, &args, &[declared]).unwrap_or_else(|e| exit_with(&e))
}

/// The value given for flag `name`, parsed; `default` when there is none.
/// On an unparsable value it prints an error naming the flag and exits
/// with status 1.
pub fn flag_or<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> T {
    flags.parsed(name, default).unwrap_or_else(|e| exit_with(&e))
}

fn exit_with(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_renders_all_series() {
        let s = vec![
            Series { label: "a".into(), glyph: '1', points: vec![(0.0, 0.0), (10.0, 10.0)] },
            Series { label: "b".into(), glyph: '2', points: vec![(5.0, 5.0)] },
        ];
        let p = ascii_plot(&s, 40, 10, "x", "y");
        assert!(p.contains('1'));
        assert!(p.contains('2'));
        assert!(p.contains("a") && p.contains("b"));
    }

    #[test]
    fn plot_handles_empty_input() {
        assert_eq!(ascii_plot(&[], 10, 5, "x", "y"), "(no data)\n");
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["col", "value"],
            &[vec!["x".into(), "1".into()], vec!["longer".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("col"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn stats_helpers() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert!(mean(&[]).is_nan());
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 99.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const TABLE1: &[(&str, Arg)] = &[("--samples", Arg::Value)];
    const HOTPATH: &[(&str, Arg)] =
        &[("--check", Arg::OptionalValue), ("--smoke", Arg::Switch), ("--out", Arg::Value)];

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        let samples = |line: &str| {
            Flags::parse("table1", &args(line), &[TABLE1])?.parsed("--samples", 128u32)
        };
        assert_eq!(samples("--samples 16"), Ok(16));
        assert_eq!(samples(""), Ok(128));
        assert_eq!(samples("--samples"), Err("--samples needs a value".to_string()));
        assert_eq!(samples("--samples abc"), Err("--samples: cannot parse 'abc'".to_string()));
    }

    #[test]
    fn unknown_repeated_valueless_and_stray_arguments_are_refused() {
        let err = |declared, line: &str| Flags::parse("bin", &args(line), &[declared]).unwrap_err();
        assert_eq!(
            err(TABLE1, "--sampels 4"),
            "unknown flag '--sampels' for 'bin' (did you mean '--samples'?)"
        );
        assert_eq!(
            err(TABLE1, "--clients 4"),
            "unknown flag '--clients' for 'bin' (it takes --samples)"
        );
        assert_eq!(err(TABLE1, "--samples 4 --samples 8"), "--samples is given twice");
        assert_eq!(err(TABLE1, "--samples --samples 8"), "--samples needs a value");
        assert_eq!(err(TABLE1, "--samples 4 extra"), "unexpected argument 'extra' for 'bin'");
        assert_eq!(err(&[], "--samples 4"), "'bin' takes no flags, got '--samples'");
        assert_eq!(err(&[], "4"), "unexpected argument '4' for 'bin'");
        assert_eq!(err(HOTPATH, "--smoke --smoke"), "--smoke is given twice");
        assert!(Flags::parse("bin", &[], &[&[]]).is_ok());
    }

    #[test]
    fn hotpath_check_takes_an_optional_path() {
        let parse = |line: &str| Flags::parse("hotpath", &args(line), &[HOTPATH]).unwrap();
        let check = |f: &Flags| f.parsed("--check", "BENCH_hotpath.json".to_string()).unwrap();
        let bare = parse("--check");
        assert!(bare.present("--check") && !bare.present("--smoke"));
        assert_eq!(check(&bare), "BENCH_hotpath.json");
        assert_eq!(check(&parse("--check out.json")), "out.json");
        let before_switch = parse("--check --smoke");
        assert_eq!(check(&before_switch), "BENCH_hotpath.json");
        assert!(before_switch.present("--smoke"));
        let run = parse("--smoke --out o.json");
        assert!(!run.present("--check"));
        assert_eq!(run.value("--out"), Some("o.json"));
    }

    #[test]
    fn csv_emits_rows() {
        let c = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "a,b\n1,2\n");
    }
}
