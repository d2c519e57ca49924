//! Assignment definitions: specification, reference solution and seed
//! solutions.
//!
//! A [`Problem`] bundles everything the corpus generator needs for one
//! assignment from Appendix A of the paper: the grading [`ProblemSpec`]
//! (entry point plus test suite), a reference solution used to derive the
//! expected outputs, and a set of hand-written *seed* solutions implementing
//! genuinely different strategies (these become the different clusters).

use clara_lang::{
    parse_program, run_function, Expected, GradeReport, Limits, ProblemSpec, SourceProgram, TestCase,
    TestResult, Value,
};
use clara_model::frontend::{grading_fuel, model_passes_test, Lang};

/// How an assignment is graded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradingMode {
    /// The return value of the entry function is compared.
    ReturnValue,
    /// The printed output is compared.
    PrintedOutput,
}

/// One assignment: specification plus seed solutions.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Short identifier (e.g. `"derivatives"`).
    pub name: &'static str,
    /// Human-readable problem statement (from Appendix A).
    pub statement: &'static str,
    /// Entry-point function name.
    pub entry: &'static str,
    /// The source language submissions are written in.
    pub lang: Lang,
    /// How attempts are graded.
    pub grading: GradingMode,
    /// The reference solution (also the first seed).
    pub reference: &'static str,
    /// Hand-written correct solutions, each a different strategy.
    pub seeds: Vec<&'static str>,
    /// The grading specification (inputs plus expected behaviour).
    pub spec: ProblemSpec,
}

impl Problem {
    /// Builds a problem, deriving the expected behaviour of every test input
    /// by running the reference solution.
    ///
    /// # Panics
    ///
    /// Panics if the reference solution does not parse or fails to run on an
    /// input — the built-in problems are covered by tests, so this only
    /// triggers while developing a new problem definition.
    pub fn new(
        name: &'static str,
        statement: &'static str,
        entry: &'static str,
        grading: GradingMode,
        reference: &'static str,
        seeds: Vec<&'static str>,
        inputs: Vec<Vec<Value>>,
    ) -> Self {
        let parsed = parse_program(reference)
            .unwrap_or_else(|e| panic!("reference solution of `{name}` does not parse: {e}"));
        let tests = inputs
            .into_iter()
            .map(|args| {
                let execution = run_function(&parsed, entry, &args, Limits::default())
                    .unwrap_or_else(|e| panic!("reference solution of `{name}` failed: {e}"));
                let expected = match grading {
                    GradingMode::ReturnValue => {
                        Expected { return_value: Some(execution.return_value), output: None }
                    }
                    GradingMode::PrintedOutput => {
                        Expected { return_value: None, output: Some(execution.output) }
                    }
                };
                TestCase { args, expected }
            })
            .collect();
        let mut spec = ProblemSpec::new(name, entry, tests);
        // Student attempts routinely contain accidental infinite loops (e.g. a
        // dropped loop increment); a tight step budget keeps grading fast for
        // the tiny programs of introductory assignments.
        spec.limits = Limits { max_steps: 10_000 };
        Problem { name, statement, entry, lang: Lang::MiniPy, grading, reference, seeds, spec }
    }

    /// Builds a MiniC problem, deriving the expected behaviour of every test
    /// input by lowering the C reference solution into the program model and
    /// executing it (MiniC has no separate interpreter; the model *is* its
    /// execution semantics, held trace-equivalent to the source by the
    /// lowering tests).
    ///
    /// # Panics
    ///
    /// Panics if the reference solution does not parse, lower or complete on
    /// an input — the built-in problems are covered by tests, so this only
    /// triggers while developing a new problem definition.
    pub fn new_minic(
        name: &'static str,
        statement: &'static str,
        entry: &'static str,
        grading: GradingMode,
        reference: &'static str,
        seeds: Vec<&'static str>,
        inputs: Vec<Vec<Value>>,
    ) -> Self {
        let parsed = clara_c::parse_c_program(reference)
            .unwrap_or_else(|e| panic!("C reference solution of `{name}` does not parse: {e}"));
        let program = clara_c::lower_entry(&parsed, entry)
            .unwrap_or_else(|e| panic!("C reference solution of `{name}` does not lower: {e}"));
        let limits = Limits { max_steps: 10_000 };
        let fuel = clara_model::Fuel { max_steps: limits.max_steps as usize, ..Default::default() };
        let tests = inputs
            .into_iter()
            .map(|args| {
                let trace = clara_model::execute(&program, &args, fuel);
                assert_eq!(
                    trace.status,
                    clara_model::TraceStatus::Completed,
                    "C reference solution of `{name}` did not complete",
                );
                let expected = match grading {
                    GradingMode::ReturnValue => {
                        Expected { return_value: Some(trace.return_value()), output: None }
                    }
                    GradingMode::PrintedOutput => {
                        Expected { return_value: None, output: Some(trace.output()) }
                    }
                };
                TestCase { args, expected }
            })
            .collect();
        let mut spec = ProblemSpec::new(name, entry, tests);
        spec.limits = limits;
        Problem { name, statement, entry, lang: Lang::MiniC, grading, reference, seeds, spec }
    }

    /// The test inputs (the set `I` over which dynamic equivalence is
    /// computed).
    pub fn inputs(&self) -> Vec<Vec<Value>> {
        self.spec.inputs()
    }

    /// Parses and grades a source text with the problem's frontend; returns
    /// `None` when it does not even parse.
    pub fn grade_source(&self, source: &str) -> Option<bool> {
        Some(crate::frontend_for(self.lang).parse(source).ok()?.passes(&self.spec))
    }

    /// Parses and grades a source text per test case; returns `None` when it
    /// does not even parse. MiniPy grades through the interpreter, MiniC
    /// through model execution (unlowerable MiniC attempts fail every test).
    pub fn grade_report(&self, source: &str) -> Option<GradeReport> {
        match self.lang {
            Lang::MiniPy => {
                let parsed = parse_program(source).ok()?;
                Some(self.spec.grade(&parsed))
            }
            Lang::MiniC => {
                let parsed = clara_c::parse_c_program(source).ok()?;
                let results = match clara_c::lower_entry(&parsed, self.entry) {
                    Ok(program) => {
                        let fuel = grading_fuel(&self.spec);
                        self.spec
                            .tests
                            .iter()
                            .map(|test| TestResult {
                                passed: model_passes_test(&program, test, fuel),
                                error: None,
                            })
                            .collect()
                    }
                    Err(_) => {
                        self.spec.tests.iter().map(|_| TestResult { passed: false, error: None }).collect()
                    }
                };
                Some(GradeReport { results })
            }
        }
    }

    /// Parses a seed (or any) solution as MiniPy (the variation and mutation
    /// engines are MiniPy-AST-based and only run on MiniPy problems).
    ///
    /// # Panics
    ///
    /// Panics when the text does not parse; seeds are static and covered by
    /// tests.
    pub fn parse(&self, source: &str) -> SourceProgram {
        debug_assert_eq!(self.lang, Lang::MiniPy, "`{}` is not a MiniPy problem", self.name);
        parse_program(source).unwrap_or_else(|e| panic!("solution of `{}` does not parse: {e}", self.name))
    }

    /// All seed solutions (the reference first), parsed.
    pub fn parsed_seeds(&self) -> Vec<SourceProgram> {
        self.seeds.iter().map(|s| self.parse(s)).collect()
    }

    /// Verifies that every seed passes the specification; returns the names
    /// of failing seed indices (used by tests).
    pub fn check_seeds(&self) -> Vec<usize> {
        self.seeds
            .iter()
            .enumerate()
            .filter(|(_, seed)| self.grade_source(seed) != Some(true))
            .map(|(i, _)| i)
            .collect()
    }
}
