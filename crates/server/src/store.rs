//! The persistent cluster index: per-problem cluster stores that serialize
//! to disk and warm-load at startup.
//!
//! Clustering the correct pool is the expensive part of bringing a problem
//! online (every solution is executed on every grading input, then matched
//! against representatives). A [`ClusterStore`] therefore persists the
//! *result* of clustering — one representative source plus the mined
//! expression slots per cluster — as JSON. Warm loading re-analyses only the
//! `K` representatives instead of re-clustering all `N ≫ K` solutions, and
//! reconstructs clusters whose repair behaviour is bit-identical to the
//! cold-built index (asserted by `tests/persistence.rs`).
//!
//! The store also supports *online* growth (§2 of the paper): newly verified
//! correct submissions are inserted incrementally via
//! [`ClusterStore::insert_correct`], which either joins an existing cluster
//! or opens a new one.

use std::fmt;
use std::path::{Path, PathBuf};

use clara_core::{
    frontend, AnalysisError, AnalyzedProgram, CandidateIndex, Clara, ClaraConfig, Cluster, ClusteringStats,
    QuerySignals,
};
use clara_corpus::Problem;
use clara_lang::Expr;
use clara_model::frontend::ParsedSubmission;
use serde::{Deserialize, Serialize};

/// On-disk format version; bumped when the stored shape changes.
/// Version 2 added the `lang` tag (multi-frontend indexes); version 3 added
/// the per-cluster retrieval signals (`retrieval`). Version-2 files still
/// load: their retrieval signals are rebuilt from the representatives.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// The oldest on-disk format this build still reads.
pub const STORE_FORMAT_MIN_COMPAT: u32 = 2;

/// Why a store could not be saved or loaded.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file is not a valid stored index.
    Format(String),
    /// The stored index belongs to a different problem or format version.
    Mismatch(String),
    /// A stored representative no longer analyses (e.g. the language
    /// evolved); the index must be rebuilt.
    Analysis(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "index io error: {e}"),
            StoreError::Format(e) => write!(f, "malformed index: {e}"),
            StoreError::Mismatch(e) => write!(f, "index mismatch: {e}"),
            StoreError::Analysis(e) => write!(f, "stale index: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One expression slot `(ℓ, v) ↦ E_C(ℓ, v)` of a stored cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredSlot {
    loc: usize,
    var: String,
    exprs: Vec<Expr>,
}

/// One cluster of the stored index.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredCluster {
    representative: String,
    member_ids: Vec<usize>,
    expressions: Vec<StoredSlot>,
}

/// One cluster's candidate-retrieval signals (format v3), parallel to
/// `clusters`. Persisting them matters because they accumulate over *every*
/// member at insertion time, while only representative sources survive a
/// round-trip — a warm start could not recompute them.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredSignals {
    structural: Vec<u64>,
    behaviour: Vec<u64>,
}

/// The serialized form of a [`ClusterStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredIndex {
    format_version: u32,
    problem: String,
    /// The language tag of the indexed submissions (`"minipy"`/`"minic"`).
    lang: String,
    entry: String,
    correct_count: usize,
    clusters: Vec<StoredCluster>,
    /// Per-cluster retrieval signals; absent in v2 files (deserializes as
    /// `None`, in which case the signals are rebuilt from representatives).
    retrieval: Option<Vec<StoredSignals>>,
}

/// A per-problem cluster index: the [`Clara`] engine plus everything needed
/// to persist and reconstruct it.
#[derive(Debug, Clone)]
pub struct ClusterStore {
    problem: Problem,
    engine: Clara,
    /// Source text of each cluster's representative, parallel to
    /// `engine.clusters()`. Only representatives are persisted — members
    /// contribute their mined expressions, which live in the clusters.
    rep_sources: Vec<String>,
}

impl ClusterStore {
    /// Builds a store by incrementally clustering `sources`; solutions that
    /// fail analysis are skipped (they are unusable for repair). Returns the
    /// store and the number of usable solutions.
    pub fn build<'a>(
        problem: &Problem,
        sources: impl IntoIterator<Item = &'a str>,
        config: ClaraConfig,
    ) -> (Self, usize) {
        let mut store = ClusterStore {
            problem: problem.clone(),
            engine: Clara::new_in(problem.lang, problem.entry, problem.inputs(), config),
            rep_sources: Vec::new(),
        };
        let mut usable = 0usize;
        for source in sources {
            if store.insert_correct(source).is_ok() {
                usable += 1;
            }
        }
        (store, usable)
    }

    /// The problem this store serves.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The underlying repair engine.
    pub fn engine(&self) -> &Clara {
        &self.engine
    }

    /// Clustering summary statistics.
    pub fn stats(&self) -> ClusteringStats {
        self.engine.clustering_stats()
    }

    /// Inserts a correct solution online and returns the index of the
    /// cluster it joined (opening a new cluster if none matches).
    ///
    /// The caller is responsible for having *verified* the solution against
    /// the grading suite first — the store trusts it (the service layer
    /// grades before learning).
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] when the solution cannot be analysed.
    pub fn insert_correct(&mut self, source: &str) -> Result<usize, AnalysisError> {
        let parsed = frontend(self.problem.lang).parse(source)?;
        self.insert_parsed(source, parsed.as_ref())
    }

    /// [`ClusterStore::insert_correct`] for a solution the caller already
    /// parsed; `source` is its text, kept if it becomes a representative.
    fn insert_parsed(&mut self, source: &str, parsed: &dyn ParsedSubmission) -> Result<usize, AnalysisError> {
        let index = self.engine.add_correct_parsed(parsed)?;
        if index == self.rep_sources.len() {
            // The solution opened a new cluster and is its representative.
            self.rep_sources.push(source.to_owned());
        }
        Ok(index)
    }

    /// Copy-on-write insertion: builds the *next* index containing `source`
    /// without mutating this one, returning the new store and the index of
    /// the cluster the solution joined. This is the snapshot writer's path:
    /// the clone and the matching run off the hot path while readers keep
    /// serving from the current snapshot, and the returned store is then
    /// published with one atomic pointer swap.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] when the solution cannot be analysed
    /// (no new store is built).
    pub fn with_learned(&self, source: &str) -> Result<(Self, usize), AnalysisError> {
        let mut next = self.clone();
        let cluster = next.insert_correct(source)?;
        Ok((next, cluster))
    }

    /// [`ClusterStore::with_learned`] for a submission the service already
    /// parsed.
    pub(crate) fn with_learned_parsed(
        &self,
        source: &str,
        parsed: &dyn ParsedSubmission,
    ) -> Result<(Self, usize), AnalysisError> {
        let mut next = self.clone();
        let cluster = next.insert_parsed(source, parsed)?;
        Ok((next, cluster))
    }

    /// Serializes the index to a JSON string.
    pub fn to_json(&self) -> String {
        let stored = StoredIndex {
            format_version: STORE_FORMAT_VERSION,
            problem: self.problem.name.to_owned(),
            lang: self.problem.lang.as_str().to_owned(),
            entry: self.problem.entry.to_owned(),
            correct_count: self.engine.correct_count(),
            clusters: self
                .engine
                .clusters()
                .iter()
                .zip(&self.rep_sources)
                .map(|(cluster, source)| StoredCluster {
                    representative: source.clone(),
                    member_ids: cluster.member_ids.clone(),
                    expressions: cluster
                        .export_expressions()
                        .into_iter()
                        .map(|(loc, var, exprs)| StoredSlot { loc, var, exprs })
                        .collect(),
                })
                .collect(),
            retrieval: Some(
                self.engine
                    .candidate_index()
                    .export()
                    .into_iter()
                    .map(|(structural, behaviour)| StoredSignals { structural, behaviour })
                    .collect(),
            ),
        };
        serde_json::to_string(&stored).expect("index serialization is infallible")
    }

    /// Reconstructs a store from [`ClusterStore::to_json`] output. Only the
    /// cluster representatives are re-analysed (executed on the grading
    /// inputs); the mined expression slots are restored verbatim, so repair
    /// behaviour is identical to the cold-built index.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on malformed JSON, a problem/format-version
    /// mismatch, or a representative that no longer analyses.
    pub fn from_json(json: &str, problem: &Problem, config: ClaraConfig) -> Result<Self, StoreError> {
        let stored: StoredIndex =
            serde_json::from_str(json).map_err(|e| StoreError::Format(e.to_string()))?;
        if stored.format_version < STORE_FORMAT_MIN_COMPAT || stored.format_version > STORE_FORMAT_VERSION {
            return Err(StoreError::Mismatch(format!(
                "format version {} (this build reads {STORE_FORMAT_MIN_COMPAT}..={STORE_FORMAT_VERSION})",
                stored.format_version
            )));
        }
        if stored.problem != problem.name || stored.entry != problem.entry {
            return Err(StoreError::Mismatch(format!(
                "index is for `{}`/`{}`, not `{}`/`{}`",
                stored.problem, stored.entry, problem.name, problem.entry
            )));
        }
        if stored.lang != problem.lang.as_str() {
            return Err(StoreError::Mismatch(format!(
                "index is for {} submissions, problem `{}` is {}",
                stored.lang, problem.name, problem.lang
            )));
        }
        let inputs = problem.inputs();
        let mut clusters = Vec::with_capacity(stored.clusters.len());
        let mut rep_sources = Vec::with_capacity(stored.clusters.len());
        // One parse per representative: it is analysed here and, for a v2
        // file, also yields the surface IR of the rebuilt retrieval signals.
        let mut rep_parses = Vec::with_capacity(stored.clusters.len());
        for cluster in stored.clusters {
            let stale = |e: AnalysisError| {
                StoreError::Analysis(format!("representative of `{}`: {e}", stored.problem))
            };
            let parsed =
                frontend(problem.lang).parse(&cluster.representative).map_err(|e| stale(e.into()))?;
            let representative =
                AnalyzedProgram::from_parsed(parsed.as_ref(), problem.entry, &inputs, config.repair.fuel)
                    .map_err(stale)?;
            let slots =
                cluster.expressions.into_iter().map(|slot| (slot.loc, slot.var, slot.exprs)).collect();
            clusters.push(Cluster::from_parts(representative, cluster.member_ids, slots));
            rep_sources.push(cluster.representative);
            rep_parses.push(parsed);
        }
        let mut engine =
            Clara::restore_in(problem.lang, problem.entry, inputs, config, clusters, stored.correct_count);
        let stored_signals = stored.retrieval.filter(|signals| signals.len() == engine.clusters().len());
        let index = match stored_signals {
            // v3: the member-accumulated signals round-trip verbatim, so the
            // warm index retrieves exactly like the cold-built one.
            Some(signals) => {
                CandidateIndex::from_parts(signals.into_iter().map(|s| (s.structural, s.behaviour)).collect())
            }
            // v2 migration (or a truncated signal table): rebuild both
            // signals from the representatives — weaker than accumulated
            // signals but self-healing, and the next save writes v3.
            None => {
                let mut rebuilt = CandidateIndex::new();
                for (i, (cluster, parsed)) in engine.clusters().iter().zip(&rep_parses).enumerate() {
                    let surface = parsed.surface(problem.entry).ok();
                    rebuilt.record(i, &QuerySignals::for_program(&cluster.representative, surface.as_ref()));
                }
                rebuilt
            }
        };
        engine.install_candidate_index(index);
        Ok(ClusterStore { problem: problem.clone(), engine, rep_sources })
    }

    /// The index file path for `problem` under `dir`.
    pub fn index_path(dir: &Path, problem_name: &str) -> PathBuf {
        dir.join(format!("{problem_name}.clusters.json"))
    }

    /// Persists the index under `dir` (created if missing); the write is
    /// atomic (temp file + rename) so a crashed writer never leaves a
    /// half-written index behind.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError::Io`] when the directory or file cannot be
    /// written.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = Self::index_path(dir, self.problem.name);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads the index for `problem` from `dir`. Returns `Ok(None)` when no
    /// index file exists (a cold start).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the file exists but cannot be read or
    /// reconstructed.
    pub fn load(dir: &Path, problem: &Problem, config: ClaraConfig) -> Result<Option<Self>, StoreError> {
        let path = Self::index_path(dir, problem.name);
        let json = match std::fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        Self::from_json(&json, problem, config).map(Some)
    }

    /// Crash-safe variant of [`ClusterStore::load`]: a truncated, corrupt or
    /// stale index file is *recovered from* instead of erroring — the bad
    /// file is quarantined as `<name>.clusters.json.corrupt` (best effort),
    /// a warning goes to stderr, and `None` is returned so the caller
    /// rebuilds from the seed pool exactly as on a cold start. Only a
    /// missing-but-unreadable filesystem (permission errors and the like)
    /// still returns an error, since rebuilding would not help.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError::Io`] for filesystem errors other than
    /// `NotFound`.
    pub fn load_or_recover(
        dir: &Path,
        problem: &Problem,
        config: ClaraConfig,
    ) -> Result<Option<Self>, StoreError> {
        match Self::load(dir, problem, config) {
            Ok(found) => Ok(found),
            Err(StoreError::Io(e)) => Err(StoreError::Io(e)),
            Err(e) => {
                let path = Self::index_path(dir, problem.name);
                let quarantine = path.with_extension("json.corrupt");
                let moved = std::fs::rename(&path, &quarantine).is_ok();
                crate::obs::log("warn", "index_quarantined")
                    .str_field("problem", problem.name)
                    .str_field("error", &e.to_string())
                    .str_field("path", &path.display().to_string())
                    .str_field(
                        "quarantined_as",
                        &if moved { quarantine.display().to_string() } else { String::new() },
                    )
                    .str_field("action", "rebuilding from seeds")
                    .emit();
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_corpus::mooc::derivatives;

    fn store_with_seeds() -> ClusterStore {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, usable) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        assert!(usable >= 2);
        store
    }

    #[test]
    fn json_roundtrip_preserves_clusters() {
        let store = store_with_seeds();
        let json = store.to_json();
        let restored = ClusterStore::from_json(&json, &derivatives(), ClaraConfig::default()).unwrap();
        assert_eq!(restored.stats(), store.stats());
        assert_eq!(restored.rep_sources, store.rep_sources);
        // Serialization is deterministic: a restored store serializes to the
        // identical JSON.
        assert_eq!(restored.to_json(), json);
    }

    #[test]
    fn v2_indexes_migrate_with_rebuilt_retrieval_signals() {
        let store = store_with_seeds();
        // Reconstruct the exact v2 shape: same clusters, no retrieval table.
        let mut stored: StoredIndex = serde_json::from_str(&store.to_json()).unwrap();
        stored.format_version = 2;
        stored.retrieval = None;
        let with_null = serde_json::to_string(&stored).unwrap();
        // A real v2 file has no `retrieval` key at all (it serializes last,
        // so stripping the null field reproduces the historical bytes).
        let v2_json = with_null.replace(",\"retrieval\":null}", "}");
        assert_ne!(v2_json, with_null, "retrieval field expected at the end of the JSON");

        for json in [with_null, v2_json] {
            let migrated = ClusterStore::from_json(&json, &derivatives(), ClaraConfig::default()).unwrap();
            assert_eq!(migrated.stats(), store.stats());
            // The retrieval signals were rebuilt from the representatives:
            // every cluster is indexed again.
            let index = migrated.engine().candidate_index();
            assert_eq!(index.len(), migrated.engine().clusters().len());
            // Saving the migrated store writes the current format.
            let upgraded = migrated.to_json();
            assert!(upgraded.contains("\"format_version\":3"), "{upgraded:.60}");
            assert!(upgraded.contains("\"retrieval\":["));
        }

        // Versions outside the compat window are still rejected.
        for bad in [1, STORE_FORMAT_VERSION + 1] {
            stored.format_version = bad;
            let json = serde_json::to_string(&stored).unwrap();
            let err = ClusterStore::from_json(&json, &derivatives(), ClaraConfig::default()).unwrap_err();
            assert!(matches!(err, StoreError::Mismatch(_)), "version {bad}: {err}");
        }
    }

    #[test]
    fn warm_loaded_retrieval_signals_round_trip_verbatim() {
        let store = store_with_seeds();
        let json = store.to_json();
        let restored = ClusterStore::from_json(&json, &derivatives(), ClaraConfig::default()).unwrap();
        assert_eq!(
            restored.engine().candidate_index().export(),
            store.engine().candidate_index().export(),
            "warm index must retrieve exactly like the cold-built one"
        );
    }

    #[test]
    fn save_and_load_via_directory() {
        let dir = std::env::temp_dir().join(format!("clara-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let problem = derivatives();
        assert!(ClusterStore::load(&dir, &problem, ClaraConfig::default()).unwrap().is_none());
        let store = store_with_seeds();
        let path = store.save(&dir).unwrap();
        assert!(path.exists());
        let loaded = ClusterStore::load(&dir, &problem, ClaraConfig::default()).unwrap().unwrap();
        assert_eq!(loaded.stats(), store.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_problem_is_rejected() {
        let store = store_with_seeds();
        let json = store.to_json();
        let other = clara_corpus::mooc::odd_tuples();
        let err = ClusterStore::from_json(&json, &other, ClaraConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        let err = ClusterStore::from_json("{]", &derivatives(), ClaraConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
    }

    #[test]
    fn corrupt_index_files_are_quarantined_and_rebuilt_from_cold() {
        let dir = std::env::temp_dir().join(format!("clara-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let problem = derivatives();
        let path = ClusterStore::index_path(&dir, problem.name);

        // A truncated write (simulated torn crash mid-save before the atomic
        // rename existed) must not brick startup: load errors, recover warns
        // and reports a cold start.
        let store = store_with_seeds();
        let json = store.to_json();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = ClusterStore::load(&dir, &problem, ClaraConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
        let recovered = ClusterStore::load_or_recover(&dir, &problem, ClaraConfig::default()).unwrap();
        assert!(recovered.is_none(), "corrupt index reads as a cold start");
        assert!(!path.exists(), "the bad file is moved out of the way");
        assert!(path.with_extension("json.corrupt").exists(), "…and kept for post-mortem");

        // After the quarantine a rebuilt index saves and loads normally.
        store.save(&dir).unwrap();
        let reloaded = ClusterStore::load_or_recover(&dir, &problem, ClaraConfig::default())
            .unwrap()
            .expect("healthy index loads");
        assert_eq!(reloaded.stats(), store.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn copy_on_write_insertion_leaves_the_source_store_untouched() {
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, [problem.seeds[0]], ClaraConfig::default());
        let before_json = store.to_json();
        let (next, cluster) = store.with_learned(problem.seeds[1]).unwrap();
        // The original is bit-identical; the successor has the insertion.
        assert_eq!(store.to_json(), before_json);
        assert_eq!(store.engine().correct_count(), 1);
        assert_eq!(next.engine().correct_count(), 2);
        assert!(cluster <= next.engine().clusters().len());
        // Unanalysable sources build no successor at all.
        assert!(store.with_learned("def broken(:\n").is_err());
        assert_eq!(store.to_json(), before_json);
    }

    #[test]
    fn online_insertion_tracks_new_representatives() {
        let problem = derivatives();
        let (mut store, _) = ClusterStore::build(&problem, [problem.seeds[0]], ClaraConfig::default());
        let before = store.engine.clusters().len();
        assert_eq!(store.rep_sources.len(), before);
        // Re-inserting the representative joins its own cluster.
        let index = store.insert_correct(problem.seeds[0]).unwrap();
        assert!(index < before);
        assert_eq!(store.rep_sources.len(), before);
        assert_eq!(store.engine.correct_count(), 2);
    }
}
