//! The `repro analyze` driver: run the abstract-interpretation framework
//! over the property catalog and render what it proved — per-property
//! facts and the *quantitative* Table 2 (resource figures instead of ✓).
//!
//! Text output is two tables (proven facts; per-backend resources at the
//! sized population) followed by the `SW014`/`SW015` resource notes. JSON
//! output is a stable, hand-rolled report consumed by the CI
//! `analysis-gate` job, which diffs it against the checked-in
//! `ANALYSIS_resources.json` snapshot so resource regressions surface in
//! review.

use swmon_analysis::absint::property_facts;
use swmon_analysis::{Diagnostic, Severity};
use swmon_backends::{quantify_all, resource_diagnostics, BackendFit, ResourceBudget, Storage};
use swmon_core::Property;

use crate::table::TextTable;

/// Everything the analysis proved about one catalog property.
pub struct PropertyReport {
    /// Property name.
    pub name: String,
    /// Syntactic event-class mask.
    pub syntactic_mask: u8,
    /// Proven (refined) event-class mask.
    pub refined_mask: u8,
    /// Per-stage completability.
    pub live_stages: Vec<bool>,
    /// Bound on spawn-binding tuples per routing key (`None` = unbounded).
    pub spawn_cardinality: Option<u64>,
    /// Intrinsic per-instance state bits.
    pub state_bits: u32,
    /// Intrinsic register slots.
    pub register_slots: u32,
    /// Per-backend resource figures, in Table 2 order.
    pub fits: Vec<BackendFit>,
    /// `SW014`/`SW015` notes for this property.
    pub diags: Vec<Diagnostic>,
}

/// Analyze one property.
pub fn report(property: &Property, budget: &ResourceBudget) -> PropertyReport {
    let facts = property_facts(property);
    PropertyReport {
        name: property.name.clone(),
        syntactic_mask: facts.syntactic_mask,
        refined_mask: facts.refined_mask,
        live_stages: facts.live_stages.clone(),
        spawn_cardinality: facts.spawn_cardinality,
        state_bits: facts.estimate.state_bits_per_instance(),
        register_slots: facts.estimate.register_slots(),
        fits: quantify_all(property),
        diags: resource_diagnostics(property, budget),
    }
}

/// Analyze the full catalog under the default budget.
pub fn run_catalog() -> Vec<PropertyReport> {
    let budget = ResourceBudget::default();
    swmon_props::catalog().iter().map(|p| report(p, &budget)).collect()
}

fn mask_bits(m: u8) -> String {
    format!("{m:07b}")
}

fn live(flags: &[bool]) -> String {
    flags.iter().map(|&l| if l { '■' } else { '·' }).collect()
}

/// One resource cell: entries for table-keyed storages, bits for register
/// storage, `✗` when the capability check fails, `ctrl` for the
/// controller-only escape hatch.
fn cell(fit: &BackendFit) -> String {
    if !fit.feasible {
        return "✗".into();
    }
    match fit.storage {
        Storage::Controller => "ctrl".into(),
        Storage::Registers => format!("{}b", fit.register_bits),
        _ => format!("{}e/{}b", fit.table_entries, fit.entry_state_bits),
    }
}

/// Render the two tables plus the resource notes.
pub fn render_pretty(reports: &[PropertyReport]) -> String {
    let mut out = String::new();

    let mut facts = TextTable::new(&[
        "property",
        "mask syn",
        "mask ref",
        "stages",
        "tuples/key",
        "bits/inst",
        "regs",
    ]);
    for r in reports {
        facts.row(vec![
            r.name.clone(),
            mask_bits(r.syntactic_mask),
            mask_bits(r.refined_mask),
            live(&r.live_stages),
            r.spawn_cardinality.map(|c| c.to_string()).unwrap_or_else(|| "∞".into()),
            r.state_bits.to_string(),
            r.register_slots.to_string(),
        ]);
    }
    out.push_str("Proven per-property facts (mask bits: arr drop uni fld down up ctl;\n");
    out.push_str("stages: ■ completable, · provably dead):\n\n");
    out.push_str(&facts.render());

    let approaches: Vec<&str> =
        reports.first().map(|r| r.fits.iter().map(|f| f.approach).collect()).unwrap_or_default();
    let mut header: Vec<&str> = vec!["property"];
    header.extend(approaches.iter().copied());
    let mut t2 = TextTable::new(&header);
    for r in reports {
        let mut row = vec![r.name.clone()];
        row.extend(r.fits.iter().map(cell));
        t2.row(row);
    }
    let population =
        reports.first().and_then(|r| r.fits.first()).map(|f| f.population).unwrap_or(0);
    out.push_str(&format!(
        "\nQuantitative Table 2 — resources at a population of {population} instances\n\
         (Ne/Mb = flow-table entries / per-entry state bits; Nb = register bits;\n\
         ctrl = controller-resident; ✗ = capability gap, see SW009):\n\n"
    ));
    out.push_str(&t2.render());

    let notes: Vec<&Diagnostic> = reports.iter().flat_map(|r| r.diags.iter()).collect();
    out.push('\n');
    for d in &notes {
        out.push_str(&d.render());
        out.push('\n');
    }
    let overflows = notes.iter().filter(|d| d.severity != Severity::Note).count();
    out.push_str(&format!(
        "{} propert(ies) analyzed, {} resource note(s), {} gating finding(s)\n",
        reports.len(),
        notes.len(),
        overflows
    ));
    out
}

/// Stable machine-readable report (consumed by CI and snapshot-diffed).
pub fn render_json(reports: &[PropertyReport]) -> String {
    use swmon_analysis::json::escape;
    let mut out = String::from("{\"report\":\"analyze\",\"properties\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"syntactic_mask\":{},\"refined_mask\":{},\"live_stages\":[{}],\
             \"spawn_cardinality\":{},\"state_bits_per_instance\":{},\"register_slots\":{},\
             \"backends\":[",
            escape(&r.name),
            r.syntactic_mask,
            r.refined_mask,
            r.live_stages.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(","),
            r.spawn_cardinality.map(|c| c.to_string()).unwrap_or_else(|| "null".into()),
            r.state_bits,
            r.register_slots,
        ));
        for (j, f) in r.fits.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"approach\":\"{}\",\"feasible\":{},\"table_entries\":{},\
                 \"register_bits\":{},\"entry_state_bits\":{}}}",
                escape(f.approach),
                f.feasible,
                f.table_entries,
                f.register_bits,
                f.entry_state_bits,
            ));
        }
        out.push_str("]}");
    }
    let errors = reports
        .iter()
        .flat_map(|r| r.diags.iter())
        .filter(|d| d.severity == Severity::Error)
        .count();
    out.push_str(&format!("],\"errors\":{errors}}}"));
    out
}

/// True when the analyze run should fail the build: any Error-severity
/// finding among the resource diagnostics.
pub fn gating(reports: &[PropertyReport]) -> bool {
    reports.iter().flat_map(|r| r.diags.iter()).any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_report_covers_every_property_and_backend() {
        let reports = run_catalog();
        assert_eq!(reports.len(), swmon_props::catalog().len());
        for r in &reports {
            assert_eq!(r.fits.len(), 7, "{}: one fit per Table 2 column", r.name);
            assert_eq!(
                r.refined_mask & !r.syntactic_mask,
                0,
                "{}: refined mask must be a subset",
                r.name
            );
            assert!(r.state_bits > 0, "{}", r.name);
            assert!(
                r.diags.iter().any(|d| d.code == swmon_analysis::Code::ResourceEstimate),
                "{}: SW014 is unconditional",
                r.name
            );
        }
        assert!(!gating(&reports), "resource notes never gate the catalog");
    }

    #[test]
    fn renders_are_stable_and_agree_on_counts() {
        let reports = run_catalog();
        let pretty = render_pretty(&reports);
        assert!(pretty.contains("Quantitative Table 2"));
        let json = render_json(&reports);
        assert_eq!(json, render_json(&run_catalog()), "byte-stable across runs");
        assert_eq!(json.matches("\"name\":").count(), reports.len());
        assert_eq!(json.matches("\"approach\":").count(), reports.len() * 7);
    }

    #[test]
    fn every_catalog_property_gets_quantitative_figures_on_some_backend() {
        // What Table 2 needs: per-backend state-bit / register /
        // table-entry estimates exist for every catalog property.
        for r in run_catalog() {
            assert!(
                r.fits.iter().any(|f| f.feasible
                    && (f.table_entries > 0
                        || f.register_bits > 0
                        || f.storage == Storage::Controller)),
                "{}: no feasible backend quantified",
                r.name
            );
        }
    }
}
