//! The correctness gate: every job's outputs against the sequential
//! reference of its graph, bit for bit.

use orchestra_delirium::DelirGraph;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::{execute_sequential, TaskKernel};

/// A graph's single-threaded reference result.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Op names in plan order.
    pub names: Vec<String>,
    /// Outputs in plan order.
    pub outputs: Vec<Vec<f64>>,
    /// Wall time of the sequential run, µs.
    pub seq_us: f64,
}

/// Runs `execute_sequential` to make the reference.
///
/// # Errors
///
/// The runtime's error, as text, when the graph cannot run.
pub fn reference(
    g: &DelirGraph,
    opts: &ExecutorOptions,
    kernel: &(dyn TaskKernel + Sync),
) -> Result<Reference, String> {
    let r = execute_sequential(g, opts, kernel).map_err(|e| e.to_string())?;
    Ok(Reference { names: r.op_names, outputs: r.outputs, seq_us: r.wall_us })
}

/// Compares outputs (with their op names, when the result carries
/// them) against the reference; `Err` names the first differing cell.
pub fn compare<'a>(
    r: &Reference,
    names: Option<&[&str]>,
    outputs: impl ExactSizeIterator<Item = &'a [f64]>,
) -> Result<(), String> {
    if outputs.len() != r.outputs.len() {
        return Err(format!("{} ops, reference has {}", outputs.len(), r.outputs.len()));
    }
    if let Some(names) = names {
        if let Some(i) = (0..names.len()).find(|&i| names[i] != r.names[i]) {
            return Err(format!("op {i} is `{}`, reference has `{}`", names[i], r.names[i]));
        }
    }
    for (i, (got, want)) in outputs.zip(&r.outputs).enumerate() {
        if got.len() != want.len() {
            return Err(format!("op {i}: {} cells, reference has {}", got.len(), want.len()));
        }
        if let Some(t) = (0..got.len()).find(|&t| got[t].to_bits() != want[t].to_bits()) {
            return Err(format!(
                "op {i} (`{}`) task {t}: {:016x} != {:016x}",
                r.names[i],
                got[t].to_bits(),
                want[t].to_bits()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refr() -> Reference {
        Reference {
            names: vec!["a".into(), "b".into()],
            outputs: vec![vec![1.0, 2.0], vec![0.0]],
            seq_us: 1.0,
        }
    }

    #[test]
    fn equal_outputs_pass() {
        let out = [vec![1.0, 2.0], vec![0.0]];
        assert!(compare(&refr(), Some(&["a", "b"]), out.iter().map(Vec::as_slice)).is_ok());
    }

    #[test]
    fn any_bit_differs() {
        // -0.0 == 0.0 as floats, but not as bits.
        let out = [vec![1.0, 2.0], vec![-0.0]];
        let e = compare(&refr(), None, out.iter().map(Vec::as_slice)).unwrap_err();
        assert!(e.contains("op 1"), "{e}");
        let renamed = compare(&refr(), Some(&["a", "c"]), refr().outputs.iter().map(Vec::as_slice));
        assert!(renamed.is_err());
        let short = [vec![1.0, 2.0]];
        assert!(compare(&refr(), None, short.iter().map(Vec::as_slice)).is_err());
    }
}
