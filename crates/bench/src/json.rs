//! Minimal JSON emission for experiment records.
//!
//! The harness writes a machine-readable record of every regenerated
//! table/figure (`repro --json`), so plots and regression checks can
//! consume results without parsing the text rendering. Hand-rolled to
//! keep the dependency set at the workspace's approved minimum.

use crate::experiments::*;

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// A JSON array: each item rendered by `item`, comma-joined.
fn list<T>(items: impl IntoIterator<Item = T>, item: impl FnMut(T) -> String) -> String {
    let body: Vec<String> = items.into_iter().map(item).collect();
    format!("[{}]", body.join(","))
}

impl Table1 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"table1\",\"n\":{},\"seq_ms\":{},\"tasks\":{},\"mean_step_ms\":{},\"min_depth\":{},\"max_depth\":{}}}",
            self.n,
            num(self.seq.as_ms_f64()),
            self.tasks,
            num(self.mean_step.as_ms_f64()),
            self.depth.0,
            self.depth.1
        )
    }
}

impl Fig2 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"fig2\",\"nodes\":{},\"individual\":{},\"block\":{}}}",
            list(&self.nodes, u16::to_string),
            list(&self.individual, |&x| num(x)),
            list(&self.block, |&x| num(x))
        )
    }
}

impl Table2 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        let rows = list(&self.rows, |(name, seq, pairs, added, step, size)| {
            format!(
                "{{\"input\":\"{name}\",\"seq_ms\":{},\"pairs\":{pairs},\"added\":{added},\"mean_step_ms\":{},\"mean_size_bytes\":{}}}",
                num(seq.as_ms_f64()),
                num(step.as_ms_f64()),
                num(*size)
            )
        });
        format!("{{\"experiment\":\"table2\",\"rows\":{rows}}}")
    }
}

/// JSON record for a set of Gröbner speedup curves (figs 4/5).
pub fn groebner_curves_to_json(experiment: &str, curves: &[GroebnerCurve]) -> String {
    let arr = list(curves, |c| {
        let overhead = match c.overhead_us {
            None => "null".to_string(),
            Some(us) => us.to_string(),
        };
        format!(
            "{{\"input\":\"{}\",\"overhead_us\":{overhead},\"nodes\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            c.input,
            list(&c.nodes, u16::to_string),
            list(&c.speedups, |s| num(s.mean)),
            list(&c.speedups, |s| num(s.min)),
            list(&c.speedups, |s| num(s.max))
        )
    });
    format!("{{\"experiment\":\"{experiment}\",\"curves\":{arr}}}")
}

/// JSON record for neural curves (figs 7/8).
pub fn neural_curves_to_json(experiment: &str, curves: &[NeuralCurve]) -> String {
    let arr = list(curves, |c| {
        format!(
            "{{\"units\":{},\"nodes\":{},\"speedup\":{},\"per_sample_us\":{}}}",
            c.units,
            list(&c.nodes, u16::to_string),
            list(&c.speedups, |&x| num(x)),
            list(&c.per_sample, |t| num(t.as_us_f64()))
        )
    });
    format!("{{\"experiment\":\"{experiment}\",\"curves\":{arr}}}")
}

impl Table3 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        let rows = list(&self.rows, |(units, seq, per_unit)| {
            format!(
                "{{\"units\":{units},\"seq_ms\":{},\"per_unit_us\":{}}}",
                num(seq.as_ms_f64()),
                num(per_unit.as_us_f64())
            )
        });
        format!("{{\"experiment\":\"table3\",\"rows\":{rows}}}")
    }
}

impl FaultsTable {
    /// JSON record. Every value is a pure function of the fixed seed
    /// and plan, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let rows = list(self.drops.iter().zip(&self.cells), |(&drop, row)| {
            let cells = list(self.nodes.iter().zip(row), |(n, c)| {
                format!(
                    "{{\"nodes\":{n},\"elapsed_us\":{},\"slowdown\":{},\"retransmits\":{},\"dropped\":{},\"duplicated\":{}}}",
                    num(c.elapsed.as_us_f64()),
                    num(c.slowdown),
                    c.retransmits,
                    c.dropped,
                    c.duplicated
                )
            });
            format!("{{\"drop\":{},\"cells\":{cells}}}", num(drop))
        });
        format!(
            "{{\"experiment\":\"faults\",\"seed\":42,\"dup\":{},\"nodes\":{},\"drops\":{},\"baseline_us\":{},\"rows\":{rows}}}",
            num(self.dup),
            list(&self.nodes, u16::to_string),
            list(&self.drops, |&x| num(x)),
            list(&self.baseline, |d| num(d.as_us_f64()))
        )
    }
}

impl CrashesTable {
    /// JSON record. Every value is a pure function of the fixed seed
    /// and plan, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let rows = list(
            self.crash_fracs.iter().zip(&self.cells),
            |((fnum, fden), row)| {
                let cells = list(self.ckpt_us.iter().zip(row), |(ck, c)| {
                    format!(
                    "{{\"ckpt_us\":{ck},\"elapsed_us\":{},\"slowdown\":{},\"checkpoints\":{},\"heartbeats\":{},\"rehomed\":{},\"downtime_us\":{}}}",
                    num(c.elapsed.as_us_f64()),
                    num(c.slowdown),
                    c.checkpoints,
                    c.heartbeats,
                    c.rehomed,
                    num(c.downtime.as_us_f64())
                )
                });
                format!("{{\"crash_frac\":\"{fnum}/{fden}\",\"cells\":{cells}}}")
            },
        );
        format!(
            "{{\"experiment\":\"crashes\",\"seed\":42,\"nodes\":20,\"crash_node\":{},\"baseline_us\":{},\"rows\":{rows}}}",
            self.crash_node,
            num(self.baseline.as_us_f64())
        )
    }
}

impl ScaleTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and workloads, so the record is byte-identical across
    /// invocations.
    pub fn to_json(&self) -> String {
        let apps = list(&self.apps, |a| format!("\"{a}\""));
        let topos = list(scale_topologies(), |t| format!("\"{}\"", t.label()));
        let curves = list(&self.curves, |c| {
            format!(
                "{{\"app\":\"{}\",\"topology\":\"{}\",\"elapsed_us\":{},\"speedup\":{}}}",
                c.app,
                c.topology,
                list(&c.elapsed, |d| num(d.as_us_f64())),
                list(&c.speedups, |&x| num(x))
            )
        });
        format!(
            "{{\"experiment\":\"scale\",\"nodes\":{},\"apps\":{apps},\"topologies\":{topos},\"baseline_us\":{},\"curves\":{curves}}}",
            list(&self.nodes, u16::to_string),
            list(&self.baseline, |d| num(d.as_us_f64()))
        )
    }
}

impl crate::traffic_sweep::TrafficTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let cells = list(&self.cells, |c| {
            let classes = list(&c.classes, |cl| {
                format!(
                    "{{\"name\":\"{}\",\"jobs\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                    cl.name,
                    cl.jobs,
                    num(cl.p50_us),
                    num(cl.p95_us),
                    num(cl.p99_us)
                )
            });
            format!(
                "{{\"variant\":\"{}\",\"offered_per_sec\":{},\"nodes\":{},\"completed\":{},\"makespan_us\":{},\"sojourn_us\":{{\"n\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},\"classes\":{classes}}}",
                c.variant,
                num(c.offered),
                c.nodes,
                c.completed,
                num(c.makespan.as_us_f64()),
                c.sojourn.n,
                num(c.sojourn.mean_ns / 1_000.0),
                num(c.sojourn.p50_ns / 1_000.0),
                num(c.sojourn.p95_ns / 1_000.0),
                num(c.sojourn.p99_ns / 1_000.0),
                num(c.sojourn.max_ns / 1_000.0)
            )
        });
        format!(
            "{{\"experiment\":\"traffic\",\"jobs\":{},\"loads_per_sec\":{},\"nodes\":{},\"cells\":{cells}}}",
            self.jobs,
            list(&self.loads, |&x| num(x)),
            list(&self.nodes, u16::to_string)
        )
    }
}

impl crate::overload_sweep::OverloadTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let cells = list(&self.cells, |c| {
            format!(
                "{{\"variant\":\"{}\",\"offered_per_sec\":{},\"jobs\":{},\"completed\":{},\"rejected\":{},\"expired\":{},\"attained\":{},\"goodput\":{},\"retries\":{},\"queue_rejections\":{},\"breaker_rejections\":{},\"breaker_opens\":{},\"sheds\":{},\"peak_waiting\":{},\"p99_us\":{},\"makespan_us\":{}}}",
                c.variant,
                num(c.offered),
                c.slo.jobs,
                c.slo.completed,
                c.slo.rejected,
                c.slo.expired,
                c.slo.attained,
                num(c.slo.goodput()),
                c.slo.retries,
                c.queue_rejections,
                c.breaker_rejections,
                c.breaker_opens,
                c.sheds,
                c.peak_waiting,
                num(c.p99_us),
                num(c.makespan.as_us_f64())
            )
        });
        format!(
            "{{\"experiment\":\"overload\",\"jobs\":{},\"nodes\":{},\"loads_per_sec\":{},\"cells\":{cells}}}",
            self.jobs,
            self.nodes,
            list(&self.loads, |&x| num(x))
        )
    }
}

impl crate::straggler_sweep::StragglerTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let cells = list(&self.cells, |c| {
            format!(
                "{{\"variant\":\"{}\",\"factor\":{},\"nodes\":{},\"jobs\":{},\"completed\":{},\"attained\":{},\"goodput\":{},\"slow_windows\":{},\"hedges_sent\":{},\"hedges_won\":{},\"quarantines\":{},\"speculated\":{},\"p99_us\":{},\"makespan_us\":{}}}",
                c.variant,
                num(c.factor),
                c.nodes,
                c.slo.jobs,
                c.slo.completed,
                c.slo.attained,
                num(c.slo.goodput()),
                c.slow_windows,
                c.hedges_sent,
                c.hedges_won,
                c.quarantines,
                c.speculated,
                num(c.p99_us),
                num(c.makespan.as_us_f64())
            )
        });
        format!(
            "{{\"experiment\":\"stragglers\",\"jobs\":{},\"factors\":{},\"node_counts\":{},\"cells\":{cells}}}",
            self.jobs,
            list(&self.factors, |&x| num(x)),
            list(&self.node_counts, u16::to_string)
        )
    }
}

impl CommsAblation {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"comms_ablation\",\"nodes\":{},\"sequential\":{},\"tree\":{}}}",
            list(&self.nodes, u16::to_string),
            list(&self.sequential, |&x| num(x)),
            list(&self.tree, |&x| num(x))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    fn is_balanced_json(s: &str) -> bool {
        // cheap structural sanity: balanced braces/brackets, no NaNs
        let mut depth = 0i32;
        for c in s.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !s.contains("NaN")
    }

    #[test]
    fn table_records_are_wellformed() {
        let t1 = table1(Scale::Quick);
        assert!(is_balanced_json(&t1.to_json()), "{}", t1.to_json());
        assert!(t1.to_json().contains("\"experiment\":\"table1\""));
        let t3 = table3(Scale::Quick);
        assert!(is_balanced_json(&t3.to_json()));
    }

    #[test]
    fn curve_records_are_wellformed() {
        let f2 = fig2(Scale::Quick);
        assert!(is_balanced_json(&f2.to_json()));
        let ab = comms_ablation(Scale::Quick);
        assert!(is_balanced_json(&ab.to_json()));
        assert!(ab.to_json().contains("\"tree\""));
    }
}
