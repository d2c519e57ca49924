//! # clara-core — clustering and minimal program repair
//!
//! This crate implements the two contributions of *"Automated Clustering and
//! Program Repair for Introductory Programming Assignments"* (PLDI 2018):
//!
//! * [`matching`] / [`cluster`]: dynamic-equivalence matching of correct
//!   student solutions (§4) and their grouping into clusters, including the
//!   mining of dynamically equivalent expression variants;
//! * [`repair`]: the fully automated repair of incorrect attempts against
//!   those clusters (§5), selecting a minimal consistent set of local repairs
//!   with a 0-1 ILP; and
//! * [`feedback`]: textual feedback generation from the minimal repair
//!   (§6.1).
//!
//! The [`Clara`] engine bundles the full pipeline of Fig. 1: ingest correct
//! solutions, cluster them, then repair incorrect attempts and render
//! feedback.
//!
//! ```rust
//! use clara_core::{Clara, ClaraConfig};
//! use clara_lang::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let poly = |xs: &[f64]| Value::List(xs.iter().map(|x| Value::Float(*x)).collect());
//! let inputs = vec![
//!     vec![poly(&[6.3, 7.6, 12.14])],
//!     vec![poly(&[3.0])],
//!     vec![poly(&[1.0, 2.0, 3.0, 4.0])],
//! ];
//! let mut clara = Clara::new("computeDeriv", inputs, ClaraConfig::default());
//! clara.add_correct_solution(
//!     "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
//! )?;
//! let outcome = clara.repair_source(
//!     "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
//! )?;
//! let repair = outcome.result.best.expect("repairable");
//! assert!(repair.total_cost > 0);
//! assert!(outcome.feedback.is_repair_feedback());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod align;
pub mod analysis;
pub mod cluster;
pub mod feedback;
pub mod frontends;
pub mod index;
pub mod matching;
pub mod oracle;
pub mod repair;
pub mod sigcache;
pub mod snapshot;
pub mod timing;

pub use align::{alignment_candidates, realign_attempt, traces_agree};
pub use analysis::{AnalysisError, AnalyzedProgram};
pub use cluster::{
    cluster_programs, clustering_stats, compact_clusters, Cluster, ClusteringStats, CompactionConfig,
};
pub use feedback::{generic_strategy, render_feedback, Feedback, FeedbackOptions};
pub use frontends::frontend;
pub use index::{behaviour_signals, surface_ngrams, CandidateIndex, QuerySignals, Retrieval};
pub use matching::{apply_var_map, exprs_match, find_matching, VarMap};
pub use oracle::{DifferentialOracle, OracleVerdict, RepairCheck};
pub use repair::{
    repair_against_cluster, repair_attempt, repair_attempt_retrieved, ClusterRepair, RepairAction,
    RepairConfig, RepairFailure, RepairResult, RetrievalOutcome,
};
pub use sigcache::{SignatureCache, ValueSignature};
pub use snapshot::{Snapshot, SnapshotCell};
pub use timing::{Span, Stage, StageSink, StageTimer};

use clara_lang::Value;
use clara_model::frontend::{Lang, ParsedSubmission};
use clara_model::Fuel;

/// Configuration of the end-to-end [`Clara`] engine.
#[derive(Debug, Clone, Default)]
pub struct ClaraConfig {
    /// Repair-algorithm configuration.
    pub repair: RepairConfig,
    /// Feedback rendering options.
    pub feedback: FeedbackOptions,
    /// Bounds on stored cluster state, applied after every insertion.
    pub compaction: CompactionConfig,
}

/// The end-to-end pipeline of Fig. 1: cluster correct solutions, repair
/// incorrect attempts, render feedback.
#[derive(Debug, Clone)]
pub struct Clara {
    entry: String,
    lang: Lang,
    inputs: Vec<Vec<Value>>,
    config: ClaraConfig,
    clusters: Vec<Cluster>,
    index: CandidateIndex,
    correct_count: usize,
}

/// The result of repairing one attempt with the [`Clara`] engine.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The raw result of the repair algorithm.
    pub result: RepairResult,
    /// The rendered feedback (generic strategy text if the repair is large,
    /// `Feedback::Correct` if no change is needed).
    pub feedback: Feedback,
}

impl Clara {
    /// Creates an engine for a MiniPy assignment whose entry function is
    /// `entry` and whose grading inputs are `inputs` (the set `I` of the
    /// paper).
    pub fn new(entry: impl Into<String>, inputs: Vec<Vec<Value>>, config: ClaraConfig) -> Self {
        Self::new_in(Lang::MiniPy, entry, inputs, config)
    }

    /// Creates an engine for an assignment whose submissions are written in
    /// `lang`; feedback expressions render in that language's syntax.
    pub fn new_in(
        lang: Lang,
        entry: impl Into<String>,
        inputs: Vec<Vec<Value>>,
        mut config: ClaraConfig,
    ) -> Self {
        config.feedback.lang = lang;
        Clara {
            entry: entry.into(),
            lang,
            inputs,
            config,
            clusters: Vec::new(),
            index: CandidateIndex::new(),
            correct_count: 0,
        }
    }

    /// The language this engine parses and renders.
    pub fn lang(&self) -> Lang {
        self.lang
    }

    /// The clusters built so far.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of correct solutions ingested so far.
    pub fn correct_count(&self) -> usize {
        self.correct_count
    }

    /// Summary statistics of the current clustering.
    pub fn clustering_stats(&self) -> ClusteringStats {
        clustering_stats(&self.clusters)
    }

    /// Adds a correct solution (source text) to the cluster pool and returns
    /// the index of the cluster it was placed into (online clustering, §2).
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] if the solution cannot be parsed or
    /// lowered; such solutions are simply not usable for repair.
    pub fn add_correct_solution(&mut self, source: &str) -> Result<usize, AnalysisError> {
        let parsed = frontend(self.lang).parse(source)?;
        self.add_correct_parsed(parsed.as_ref())
    }

    /// Adds a parsed correct solution to the cluster pool and returns the
    /// index of the cluster it was placed into. The same parse yields the
    /// surface IR for the structural retrieval signal; the behaviour signal
    /// alone still indexes the cluster if lowering to surface form fails.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] if the solution cannot be lowered.
    pub fn add_correct_parsed(&mut self, parsed: &dyn ParsedSubmission) -> Result<usize, AnalysisError> {
        let analyzed =
            AnalyzedProgram::from_parsed(parsed, &self.entry, &self.inputs, self.config.repair.fuel)?;
        let surface = parsed.surface(&self.entry).ok();
        let signals = QuerySignals::for_program(&analyzed, surface.as_ref());
        self.correct_count += 1;
        // Incremental clustering: try to place the solution into an existing
        // cluster, otherwise open a new one.
        let mut placed = None;
        for (index, cluster) in self.clusters.iter_mut().enumerate() {
            if cluster.representative.fingerprint == analyzed.fingerprint {
                if let Some(witness) = find_matching(&cluster.representative, &analyzed) {
                    cluster.absorb_member(&analyzed, &witness, self.correct_count - 1);
                    placed = Some(index);
                    break;
                }
            }
        }
        let index = placed.unwrap_or_else(|| {
            self.clusters.extend(cluster_programs(vec![analyzed]));
            self.clusters.len() - 1
        });
        self.index.record(index, &signals);
        self.compact_after_insert(index);
        Ok(index)
    }

    /// Applies the compaction budget after an insertion into cluster
    /// `touched`: the touched cluster's slots are capped, and when the
    /// cluster count exceeds its budget the global demotion pass runs.
    fn compact_after_insert(&mut self, touched: usize) {
        let limits = self.config.compaction.clone();
        self.clusters[touched].cap_expression_slots(limits.max_exprs_per_slot);
        if self.clusters.len() > limits.max_full_clusters {
            compact_clusters(&mut self.clusters, &limits);
        }
    }

    /// Reconstructs a MiniPy engine from previously built clusters (the
    /// warm-start path of the persistent cluster index): no matching runs,
    /// the clusters are trusted as-is.
    pub fn restore(
        entry: impl Into<String>,
        inputs: Vec<Vec<Value>>,
        config: ClaraConfig,
        clusters: Vec<Cluster>,
        correct_count: usize,
    ) -> Self {
        Self::restore_in(Lang::MiniPy, entry, inputs, config, clusters, correct_count)
    }

    /// Reconstructs an engine for `lang` from previously built clusters
    /// (see [`Clara::restore`]).
    pub fn restore_in(
        lang: Lang,
        entry: impl Into<String>,
        inputs: Vec<Vec<Value>>,
        mut config: ClaraConfig,
        clusters: Vec<Cluster>,
        correct_count: usize,
    ) -> Self {
        config.feedback.lang = lang;
        // Seed retrieval from the representatives' behaviour signals; the
        // host can replace this with a persisted index (carrying the full
        // member-accumulated signals) via
        // [`Clara::install_candidate_index`].
        let mut index = CandidateIndex::new();
        for (i, cluster) in clusters.iter().enumerate() {
            index.record(i, &QuerySignals::for_program(&cluster.representative, None));
        }
        Clara { entry: entry.into(), lang, inputs, config, clusters, index, correct_count }
    }

    /// The candidate retrieval index over the current clusters.
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.index
    }

    /// Replaces the retrieval index wholesale — the warm-start path when a
    /// persisted index (with member-accumulated signals) is available. The
    /// index must describe the engine's clusters in order; extra trailing
    /// entries are not permitted.
    ///
    /// # Panics
    ///
    /// Panics if the index covers more clusters than the engine holds.
    pub fn install_candidate_index(&mut self, index: CandidateIndex) {
        assert!(
            index.len() <= self.clusters.len(),
            "candidate index covers {} clusters but the engine holds {}",
            index.len(),
            self.clusters.len()
        );
        self.index = index;
    }

    /// The engine configuration.
    pub fn config(&self) -> &ClaraConfig {
        &self.config
    }

    /// Repairs an incorrect attempt given as source text and renders
    /// feedback.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] if the attempt cannot be parsed or
    /// lowered (these are the "unsupported feature" failures of §6.2).
    pub fn repair_source(&self, source: &str) -> Result<RepairOutcome, AnalysisError> {
        let parsed = frontend(self.lang).parse(source)?;
        self.repair_parsed(parsed.as_ref())
    }

    /// Repairs a parsed incorrect attempt and renders feedback. The one
    /// parse serves analysis and the surface IR.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Unsupported`] if the attempt cannot be
    /// lowered.
    pub fn repair_parsed(&self, parsed: &dyn ParsedSubmission) -> Result<RepairOutcome, AnalysisError> {
        let attempt =
            AnalyzedProgram::from_parsed(parsed, &self.entry, &self.inputs, self.config.repair.fuel)?;
        // The surface IR feeds both the structural retrieval signal and the
        // flexible-alignment fallback, so it is built whenever either is on.
        let wants_surface = (self.config.repair.use_candidate_index && !self.index.is_empty())
            || self.config.repair.flexible_alignment;
        let surface = if wants_surface { parsed.surface(&self.entry).ok() } else { None };
        Ok(self.repair_with_surface(&attempt, surface.as_ref()))
    }

    /// Repairs an analysed attempt, using its surface IR (when available)
    /// for the structural half of the candidate pre-search.
    pub fn repair_with_surface(
        &self,
        attempt: &AnalyzedProgram,
        surface: Option<&clara_model::surface::SurfaceFunction>,
    ) -> RepairOutcome {
        let query = if self.config.repair.use_candidate_index && !self.index.is_empty() {
            let _timer = StageTimer::start(Stage::CandidateSearch);
            Some(QuerySignals::for_program(attempt, surface))
        } else {
            None
        };
        let mut result = repair_attempt_retrieved(
            &self.clusters,
            query.as_ref().map(|q| (&self.index, q)),
            attempt,
            &self.inputs,
            &self.config.repair,
        );
        // Structure-mismatch fallback (§6.2 (1)): when no cluster shares the
        // attempt's control flow, normalize the attempt's surface IR and
        // retry. Soundness is preserved — the repair the fallback returns
        // was matcher-verified against its cluster, and the normalized
        // program agrees with the attempt on every grading input.
        let mut normalized: Option<AnalyzedProgram> = None;
        if result.best.is_none()
            && result.failure == Some(RepairFailure::NoMatchingControlFlow)
            && self.config.repair.flexible_alignment
        {
            if let Some(surface) = surface {
                if let Some((aligned, program)) = align::realign_attempt(
                    &self.clusters,
                    attempt,
                    surface,
                    &self.inputs,
                    &self.config.repair,
                ) {
                    result = aligned;
                    normalized = Some(program);
                }
            }
        }
        // Feedback lines must point into the program the repair actions
        // refer to: the normalized program when the alignment fallback ran.
        let feedback_program = normalized.as_ref().map_or(&attempt.program, |n| &n.program);
        let feedback = match &result.best {
            Some(repair) => render_feedback(repair, feedback_program, &self.config.feedback),
            None => Feedback::GenericStrategy(generic_strategy(&attempt.program)),
        };
        RepairOutcome { result, feedback }
    }

    /// The grading inputs of the assignment.
    pub fn inputs(&self) -> &[Vec<Value>] {
        &self.inputs
    }

    /// The execution fuel used for analysis.
    pub fn fuel(&self) -> Fuel {
        self.config.repair.fuel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_model::Loc;

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    fn inputs() -> Vec<Vec<Value>> {
        vec![
            vec![poly(&[6.3, 7.6, 12.14])],
            vec![poly(&[3.0])],
            vec![poly(&[1.0, 2.0, 3.0, 4.0])],
            vec![poly(&[])],
        ]
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

    const I1: &str = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";

    const I2: &str = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        result[i]=float((i)*poly[i])
    return result
";

    fn engine(correct: &[&str]) -> Clara {
        let mut clara = Clara::new("computeDeriv", inputs(), ClaraConfig::default());
        for src in correct {
            clara.add_correct_solution(src).unwrap();
        }
        clara
    }

    #[test]
    fn i1_gets_the_papers_small_repair() {
        // Fig. 2(g): the only required change is in the return statement.
        let clara = engine(&[C1, C2]);
        assert_eq!(clara.clusters().len(), 1);
        let outcome = clara.repair_source(I1).unwrap();
        let repair = outcome.result.best.expect("I1 is repairable");
        assert_eq!(repair.verified, Some(true));
        // Only the return expression needs a (cost > 0) modification.
        let costly: Vec<_> = repair.actions.iter().filter(|a| a.cost() > 0).collect();
        assert_eq!(costly.len(), 1, "expected exactly one modification, got {costly:?}");
        match costly[0] {
            RepairAction::Modify { var, loc, .. } => {
                assert_eq!(var, "return");
                assert_eq!(*loc, Loc(3));
            }
            other => panic!("expected a modification of the return statement, got {other:?}"),
        }
        // The relative repair size reported in the paper for Fig. 2(g) is
        // 0.03 — ours must also be small.
        assert!(repair.total_cost <= 3, "cost was {}", repair.total_cost);
    }

    #[test]
    fn i2_gets_a_repair_with_the_three_modifications() {
        // Fig. 2(h): iterator expression, loop-body assignment, return.
        let clara = engine(&[C1, C2]);
        let outcome = clara.repair_source(I2).unwrap();
        let repair = outcome.result.best.expect("I2 is repairable");
        assert_eq!(repair.verified, Some(true));
        let costly: Vec<_> = repair.actions.iter().filter(|a| a.cost() > 0).collect();
        assert!(
            (2..=4).contains(&costly.len()),
            "expected the paper's ~3 modifications, got {}: {costly:?}",
            costly.len()
        );
        // The iterator expression (the `for` iterable) must be among them.
        assert!(
            repair
                .actions
                .iter()
                .any(|a| matches!(a, RepairAction::Modify { var, .. } if var.starts_with("#it"))),
            "expected an iterator-expression modification: {:?}",
            repair.actions
        );
        let feedback = outcome.feedback;
        assert!(feedback.is_repair_feedback());
        let text = feedback.lines().join("\n");
        assert!(text.contains("iterator expression"), "feedback: {text}");
    }

    #[test]
    fn correct_attempts_repair_with_zero_cost() {
        let clara = engine(&[C1, C2]);
        let outcome = clara.repair_source(C2).unwrap();
        let repair = outcome.result.best.unwrap();
        assert_eq!(repair.total_cost, 0);
        assert_eq!(outcome.feedback, Feedback::Correct);
    }

    #[test]
    fn clustering_is_incremental() {
        let clara = engine(&[C1, C2, C1, C2]);
        assert_eq!(clara.correct_count(), 4);
        assert_eq!(clara.clusters().len(), 1);
        assert_eq!(clara.clustering_stats().largest_cluster, 4);
    }

    #[test]
    fn attempts_without_matching_control_flow_fail_gracefully() {
        let clara = engine(&[C1]);
        // A nested-loop attempt cannot be repaired against a single-loop
        // cluster (§6.2 (1): 35 such failures in the MOOC experiment).
        let nested = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        for j in range(i):
            result.append(float(poly[i]))
    return result
";
        let outcome = clara.repair_source(nested).unwrap();
        assert!(outcome.result.best.is_none());
        assert_eq!(outcome.result.failure, Some(RepairFailure::NoMatchingControlFlow));
        assert!(matches!(outcome.feedback, Feedback::GenericStrategy(_)));
    }

    #[test]
    fn unsupported_attempts_are_reported_as_analysis_errors() {
        let clara = engine(&[C1]);
        let err = clara
            .repair_source(
                "def helper(x):\n    return x\n\ndef computeDeriv(poly):\n    return helper(poly)\n",
            )
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)));
    }

    #[test]
    fn empty_attempts_get_the_trivial_rewrite() {
        let clara = engine(&[C1, C2]);
        let outcome = clara.repair_source("def computeDeriv(poly):\n    pass\n").unwrap();
        let repair = outcome.result.best.expect("empty attempts are repaired by rewrite");
        assert!(repair.total_cost > 5);
        assert!(repair.relative_size(0).is_infinite());
    }

    #[test]
    fn repairs_can_combine_expressions_from_different_solutions() {
        // C2 contributes `deriv + [float(i)*poly[i]]`; an attempt whose loop
        // body is close to that form should be repaired using C2's
        // expression even though the representative is C1.
        let clara = engine(&[C1, C2]);
        let attempt = "\
def computeDeriv(poly):
    out = []
    for i in xrange(1,len(poly)):
        out += [float(i)*poly[i+1]]
    if len(out)==0:
        return [0.0]
    return out
";
        let outcome = clara.repair_source(attempt).unwrap();
        let repair = outcome.result.best.expect("repairable");
        assert_eq!(repair.verified, Some(true));
        assert!(repair.total_cost <= 3, "expected a small repair, cost was {}", repair.total_cost);
    }
}
