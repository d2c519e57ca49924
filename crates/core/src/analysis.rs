//! Dynamic analysis of student attempts: lowering + trace collection.
//!
//! An [`AnalyzedProgram`] bundles a model [`Program`] with the traces obtained
//! by executing it on the assignment's test inputs (the set `I` of the
//! paper). Everything the matching, clustering and repair algorithms need is
//! derived from this structure.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use clara_lang::Value;
use clara_model::frontend::{FrontendError, Lang, ParsedSubmission};
use clara_model::{execute_on_inputs, Fuel, LowerError, Program, StructSig, Trace};

/// Why a student attempt could not be analysed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The source text could not be parsed.
    Syntax(FrontendError),
    /// The program uses constructs the model does not support.
    Unsupported(LowerError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Syntax(e) => write!(f, "{e}"),
            AnalysisError::Unsupported(e) => write!(f, "{e}"),
        }
    }
}

impl AnalysisError {
    /// `true` for parse failures (of any frontend).
    pub fn is_syntax_error(&self) -> bool {
        matches!(self, AnalysisError::Syntax(_))
    }
}

impl std::error::Error for AnalysisError {}

impl From<FrontendError> for AnalysisError {
    fn from(e: FrontendError) -> Self {
        AnalysisError::Syntax(e)
    }
}

impl From<LowerError> for AnalysisError {
    fn from(e: LowerError) -> Self {
        AnalysisError::Unsupported(e)
    }
}

/// A lowered program together with its traces on the assignment inputs.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The model program.
    pub program: Program,
    /// One trace per input, in input order.
    pub traces: Vec<Trace>,
    /// A cheap fingerprint of the dynamic behaviour used as a clustering
    /// pre-filter: programs with different fingerprints cannot match.
    pub fingerprint: u64,
    /// Per-variable value projections (with trace separators) and their
    /// hashes, precomputed once at analysis time. `find_matching` probes the
    /// representative's projections on every clustering attempt, so these
    /// must not be recomputed per probe.
    projections: HashMap<String, Projection>,
}

/// A cached variable projection: the concatenated per-trace value sequences
/// and a hash consistent with `Value`'s `py_eq`-based equality.
#[derive(Debug, Clone)]
struct Projection {
    values: Vec<Value>,
    hash: u64,
}

impl AnalyzedProgram {
    /// Parses, lowers and executes a MiniPy source text in one step.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] for syntax errors or unsupported
    /// constructs.
    pub fn from_text(
        text: &str,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        Self::from_text_in(Lang::MiniPy, text, entry, inputs, fuel)
    }

    /// Parses, lowers and executes a source text written in `lang`.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] for syntax errors or unsupported
    /// constructs.
    pub fn from_text_in(
        lang: Lang,
        text: &str,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        let parsed = crate::frontends::frontend(lang).parse(text)?;
        Self::from_parsed(parsed.as_ref(), entry, inputs, fuel)
    }

    /// Lowers a parsed submission's `entry` function and executes it on
    /// `inputs` — the one step from a frontend's parse to an analysed
    /// program, whatever the language.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Unsupported`] if the program cannot be
    /// lowered into the model.
    pub fn from_parsed(
        parsed: &dyn ParsedSubmission,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        Ok(Self::from_program(parsed.lower(entry)?, inputs, fuel))
    }

    /// Executes an already-lowered program on `inputs`.
    pub fn from_program(program: Program, inputs: &[Vec<Value>], fuel: Fuel) -> Self {
        let traces = execute_on_inputs(&program, inputs, fuel);
        let projections = compute_projections(&program, &traces);
        let fingerprint = behaviour_fingerprint(&program, &traces, &projections);
        AnalyzedProgram { program, traces, fingerprint, projections }
    }

    /// The concatenated projection of `var` over all traces (the per-trace
    /// projections separated by a marker so that boundaries cannot be
    /// confused). Precomputed at analysis time; unknown variables yield the
    /// empty projection.
    pub fn projection(&self, var: &str) -> &[Value] {
        self.projections.get(var).map(|p| p.values.as_slice()).unwrap_or(&[])
    }

    /// A hash of [`AnalyzedProgram::projection`], consistent with the
    /// `py_eq`-based equality of value slices: equal projections have equal
    /// hashes, so unequal hashes prove two projections differ.
    pub fn projection_hash(&self, var: &str) -> u64 {
        self.projections.get(var).map(|p| p.hash).unwrap_or(0)
    }

    /// The concatenated location sequence over all traces.
    pub fn location_sequence(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for trace in &self.traces {
            out.extend(trace.locations().iter().map(|l| l.0));
            out.push(usize::MAX);
        }
        out
    }

    /// The structural signature key of the program.
    pub fn signature_key(&self) -> String {
        StructSig::sequence_key(&self.program.signature)
    }
}

/// Computes the per-variable projections (and their hashes) once for all
/// variables of the program.
fn compute_projections(program: &Program, traces: &[Trace]) -> HashMap<String, Projection> {
    let separator = Value::str("⋄");
    program
        .vars
        .iter()
        .map(|var| {
            let mut values = Vec::new();
            for trace in traces {
                values.extend(trace.projection(var));
                values.push(separator.clone());
            }
            let mut hasher = DefaultHasher::new();
            values.len().hash(&mut hasher);
            for value in &values {
                value.hash(&mut hasher);
            }
            (var.clone(), Projection { hash: hasher.finish(), values })
        })
        .collect()
}

/// A fingerprint of (control-flow structure, location sequence, multiset of
/// per-variable value sequences). Two programs that match necessarily have
/// equal fingerprints, so unequal fingerprints let clustering skip the full
/// matching test.
///
/// The per-variable hashes are the cached projection hashes, which hash
/// values through `Value`'s `py_eq`-consistent `Hash`. (The previous
/// rendering-based hash distinguished `1` from `1.0`, which `py_eq` — and
/// therefore the matcher — does not, so two matchable programs could be
/// missed by the pre-filter.)
fn behaviour_fingerprint(
    program: &Program,
    traces: &[Trace],
    projections: &HashMap<String, Projection>,
) -> u64 {
    let mut hasher = DefaultHasher::new();
    StructSig::sequence_key(&program.signature).hash(&mut hasher);
    for trace in traces {
        for loc in trace.locations() {
            loc.0.hash(&mut hasher);
        }
        usize::MAX.hash(&mut hasher);
    }
    // Multiset of projection hashes: order-independent combination (sum of
    // per-variable hashes) so that variable naming/order does not matter.
    let mut combined: u64 = 0;
    for projection in projections.values() {
        combined = combined.wrapping_add(projection.hash);
    }
    combined.hash(&mut hasher);
    program.vars.len().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    fn inputs() -> Vec<Vec<Value>> {
        vec![vec![poly(&[6.3, 7.6, 12.14])], vec![poly(&[3.0])], vec![poly(&[1.0, 2.0, 3.0, 4.0])]]
    }

    const C1: &str = "\
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";

    const C2: &str = "\
def computeDeriv(poly):
    deriv = []
    for i in xrange(1,len(poly)):
        deriv+=[float(i)*poly[i]]
    if len(deriv)==0:
        return [0.0]
    return deriv
";

    #[test]
    fn analysis_produces_one_trace_per_input() {
        let analyzed = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_eq!(analyzed.traces.len(), 3);
        assert_eq!(analyzed.signature_key(), "BL(B)B");
    }

    #[test]
    fn matching_programs_have_equal_fingerprints() {
        let a = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        let b = AnalyzedProgram::from_text(C2, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn different_behaviour_changes_the_fingerprint() {
        let wrong = "\
def computeDeriv(poly):
    result = []
    for e in range(len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";
        let a = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        let b = AnalyzedProgram::from_text(wrong, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = AnalyzedProgram::from_text("def f(:\n", "f", &[], Fuel::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::Syntax(_)));
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let err = AnalyzedProgram::from_text(
            "def g(x):\n    return x\n\ndef f(x):\n    return g(x)\n",
            "f",
            &[],
            Fuel::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)));
    }
}
