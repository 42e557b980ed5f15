//! Plain-text table rendering and the scale argument for the experiment binaries.

use spmv_matrices::suite::Scale;

/// Render a table with a header row and aligned columns, in the style of the paper's
/// tables (fixed-width plain text suitable for a terminal or a lab notebook).
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
    out.push_str(&"=".repeat(total.max(title.len())));
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:<width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(total.max(title.len())));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a Gflop/s value the way the paper's tables do (two decimals).
pub fn gflops(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a GB/s value with its percentage of a peak.
pub fn gbs_with_pct(v: f64, peak: f64) -> String {
    format!("{:.2} ({:.0}%)", v, 100.0 * v / peak)
}

/// Format a Gflop/s value with its percentage of a peak.
pub fn gflops_with_pct(v: f64, peak: f64) -> String {
    format!("{:.2} ({:.1}%)", v, 100.0 * v / peak)
}

/// Parse a scale name (`full`, `quarter`, `small`, `tiny`); no argument means
/// `default`. Anything else is an error naming the offending argument — a typo
/// must not silently run another scale.
pub fn parse_scale(arg: Option<&str>, default: Scale) -> Result<Scale, String> {
    match arg {
        None => Ok(default),
        Some("full") => Ok(Scale::Full),
        Some("quarter") => Ok(Scale::Quarter),
        Some("small") => Ok(Scale::Small),
        Some("tiny") => Ok(Scale::Tiny),
        Some(other) => Err(format!("unknown scale '{other}'")),
    }
}

/// The scale argument of the running binary (its first argument), or `default`
/// without one; on an unknown name, one usage line on stderr and exit status 2.
pub fn parse_scale_arg(default: Scale) -> Scale {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_scale(args.next().as_deref(), default).unwrap_or_else(|err| {
        eprintln!("usage: {bin} [full|quarter|small|tiny] ({err})");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let s = render_table(
            "Demo",
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.00".to_string()],
                vec!["longer-name".to_string(), "2.50".to_string()],
            ],
        );
        assert!(s.contains("Demo"));
        assert!(s.contains("longer-name | 2.50"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(gflops(1.234), "1.23");
        assert_eq!(gbs_with_pct(5.4, 10.8), "5.40 (50%)");
        assert_eq!(gflops_with_pct(1.0, 4.0), "1.00 (25.0%)");
    }

    #[test]
    fn scale_names_parse_and_everything_else_is_an_error() {
        for (name, scale) in [
            ("full", Scale::Full),
            ("quarter", Scale::Quarter),
            ("small", Scale::Small),
            ("tiny", Scale::Tiny),
        ] {
            assert_eq!(parse_scale(Some(name), Scale::Small), Ok(scale));
        }
        assert_eq!(parse_scale(None, Scale::Quarter), Ok(Scale::Quarter));
        for bad in ["--scale", "", "TINY"] {
            let err = parse_scale(Some(bad), Scale::Tiny).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
