//! Figure/table artifacts and their renderers.
//!
//! Every experiment produces [`Artifact`]s: CDF figures, tables, scatter
//! plots, or box plots — the same shapes the paper's figures take. Each
//! renders to readable text (for the terminal) and CSV (for plotting).

use analysis::stats::{BoxStats, WeightedCdf};

/// Quantiles at which CDF figures are tabulated.
pub(crate) const CDF_QUANTILES: [f64; 9] = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];

/// Formats a value with precision adapted to its magnitude, so
/// queries-per-user-per-day (10⁻⁴…10³) and inflation milliseconds both
/// read well in one table.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.1e}")
    }
}

/// One reproduced figure or table.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A CDF figure (e.g. Fig. 2a): named series over a common x-axis.
    Cdf {
        /// Experiment id (e.g. `"fig2a"`).
        id: String,
        /// Figure title.
        title: String,
        /// X-axis label.
        xlabel: String,
        /// Named series.
        series: Vec<(String, WeightedCdf)>,
    },
    /// A plain table (e.g. Table 1).
    Table {
        /// Experiment id.
        id: String,
        /// Table title.
        title: String,
        /// Column headers.
        header: Vec<String>,
        /// Rows.
        rows: Vec<Vec<String>>,
    },
    /// A scatter plot (e.g. Fig. 7a): labelled (x, y) points.
    Scatter {
        /// Experiment id.
        id: String,
        /// Title.
        title: String,
        /// X-axis label.
        xlabel: String,
        /// Y-axis label.
        ylabel: String,
        /// (label, x, y) points.
        points: Vec<(String, f64, f64)>,
    },
    /// Free-form preformatted text (e.g. the Fig. 14 ASCII map).
    Text {
        /// Experiment id.
        id: String,
        /// Title.
        title: String,
        /// Preformatted body.
        body: String,
    },
    /// A grouped box plot (Fig. 6b).
    Boxes {
        /// Experiment id.
        id: String,
        /// Title.
        title: String,
        /// (group, [(subgroup, stats)]) — e.g. (destination, per path
        /// length class).
        groups: Vec<(String, Vec<(String, BoxStats)>)>,
    },
}

impl Artifact {
    /// The experiment id.
    pub fn id(&self) -> &str {
        match self {
            Artifact::Cdf { id, .. }
            | Artifact::Table { id, .. }
            | Artifact::Scatter { id, .. }
            | Artifact::Text { id, .. }
            | Artifact::Boxes { id, .. } => id,
        }
    }

    /// The title.
    pub(crate) fn title(&self) -> &str {
        match self {
            Artifact::Cdf { title, .. }
            | Artifact::Table { title, .. }
            | Artifact::Scatter { title, .. }
            | Artifact::Text { title, .. }
            | Artifact::Boxes { title, .. } => title,
        }
    }

    /// Number of underlying data items: CDF points across series, table
    /// rows, scatter points, text lines, or boxes. Reported to the
    /// observability layer as the `exp{id=…}` span's item count and by
    /// the repro binary's per-experiment summary line.
    pub fn item_count(&self) -> u64 {
        match self {
            Artifact::Cdf { series, .. } => {
                series.iter().map(|(_, c)| c.len() as u64).sum()
            }
            Artifact::Table { rows, .. } => rows.len() as u64,
            Artifact::Scatter { points, .. } => points.len() as u64,
            Artifact::Text { body, .. } => body.lines().count() as u64,
            Artifact::Boxes { groups, .. } => {
                groups.iter().map(|(_, subs)| subs.len() as u64).sum()
            }
        }
    }

    /// Renders for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id(), self.title()));
        match self {
            Artifact::Cdf { xlabel, series, .. } => {
                out.push_str(&format!("{xlabel} at quantiles:\n"));
                out.push_str(&format!("{:<22}", "series"));
                for q in CDF_QUANTILES {
                    out.push_str(&format!("{:>9}", format!("p{:02.0}", q * 100.0)));
                }
                out.push_str(&format!("{:>9}\n", "%@0"));
                for (name, cdf) in series {
                    out.push_str(&format!("{name:<22}"));
                    if cdf.is_empty() {
                        out.push_str("  (empty)\n");
                        continue;
                    }
                    for q in CDF_QUANTILES {
                        out.push_str(&format!("{:>9}", fmt_value(cdf.quantile(q))));
                    }
                    out.push_str(&format!("{:>8.1}%\n", cdf.intercept(1.0) * 100.0));
                }
            }
            Artifact::Table { header, rows, .. } => {
                let widths: Vec<usize> = header
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        rows.iter()
                            .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                            .chain([h.len()])
                            .max()
                            .unwrap_or(4)
                    })
                    .collect();
                let fmt_row = |cells: &[String]| -> String {
                    cells
                        .iter()
                        .zip(&widths)
                        .map(|(c, w)| format!("{c:<w$}", w = w + 2))
                        .collect::<String>()
                };
                out.push_str(&fmt_row(header));
                out.push('\n');
                for row in rows {
                    out.push_str(&fmt_row(row));
                    out.push('\n');
                }
            }
            Artifact::Scatter { xlabel, ylabel, points, .. } => {
                out.push_str(&format!("{:<16}{:>14}{:>14}\n", "label", xlabel, ylabel));
                for (label, x, y) in points {
                    out.push_str(&format!("{label:<16}{x:>14.2}{y:>14.3}\n"));
                }
            }
            Artifact::Text { body, .. } => {
                out.push_str(body);
                if !body.ends_with('\n') {
                    out.push('\n');
                }
            }
            Artifact::Boxes { groups, .. } => {
                out.push_str(&format!(
                    "{:<16}{:<12}{:>9}{:>9}{:>9}{:>9}{:>9}\n",
                    "group", "subgroup", "min", "q1", "med", "q3", "max"
                ));
                for (g, subs) in groups {
                    for (s, b) in subs {
                        out.push_str(&format!(
                            "{g:<16}{s:<12}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{:>9.2}\n",
                            b.min, b.q1, b.median, b.q3, b.max
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders as CSV (one file's contents).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        match self {
            Artifact::Cdf { series, .. } => {
                out.push_str("series,value,cum_fraction\n");
                for (name, cdf) in series {
                    for (v, f) in cdf.curve(200) {
                        out.push_str(&format!("{name},{v},{f}\n"));
                    }
                }
            }
            Artifact::Table { header, rows, .. } => {
                out.push_str(&header.join(","));
                out.push('\n');
                for row in rows {
                    out.push_str(&row.join(","));
                    out.push('\n');
                }
            }
            Artifact::Scatter { xlabel, ylabel, points, .. } => {
                out.push_str(&format!("label,{xlabel},{ylabel}\n"));
                for (label, x, y) in points {
                    out.push_str(&format!("{label},{x},{y}\n"));
                }
            }
            Artifact::Text { body, .. } => {
                out.push_str("text\n");
                for line in body.lines() {
                    out.push_str(&format!("{:?}\n", line));
                }
            }
            Artifact::Boxes { groups, .. } => {
                out.push_str("group,subgroup,min,q1,median,q3,max\n");
                for (g, subs) in groups {
                    for (s, b) in subs {
                        out.push_str(&format!(
                            "{g},{s},{},{},{},{},{}\n",
                            b.min, b.q1, b.median, b.q3, b.max
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf() -> WeightedCdf {
        WeightedCdf::from_values((0..100).map(|i| i as f64))
    }

    #[test]
    fn cdf_artifact_renders_quantiles_and_intercept() {
        let a = Artifact::Cdf {
            id: "figX".into(),
            title: "test".into(),
            xlabel: "ms".into(),
            series: vec![("s1".into(), cdf())],
        };
        let text = a.render_text();
        assert!(text.contains("figX"));
        assert!(text.contains("s1"));
        assert!(text.contains("p50"));
        let csv = a.render_csv();
        assert!(csv.starts_with("series,value,cum_fraction"));
        assert!(csv.lines().count() > 100);
    }

    #[test]
    fn table_artifact_aligns_columns() {
        let a = Artifact::Table {
            id: "tab1".into(),
            title: "survey".into(),
            header: vec!["reason".into(), "orgs".into()],
            rows: vec![vec!["Latency".into(), "8".into()]],
        };
        let text = a.render_text();
        assert!(text.contains("reason"));
        assert!(text.contains("Latency"));
        assert_eq!(a.render_csv().lines().count(), 2);
    }

    #[test]
    fn empty_series_render_gracefully() {
        let a = Artifact::Cdf {
            id: "figY".into(),
            title: "empty".into(),
            xlabel: "ms".into(),
            series: vec![("none".into(), WeightedCdf::from_points(vec![]))],
        };
        assert!(a.render_text().contains("(empty)"));
    }

    #[test]
    fn ids_match() {
        let a = Artifact::Scatter {
            id: "fig7a".into(),
            title: "t".into(),
            xlabel: "x".into(),
            ylabel: "y".into(),
            points: vec![("B".into(), 2.0, 160.0)],
        };
        assert_eq!(a.id(), "fig7a");
        assert!(a.render_text().contains("160"));
    }
}
