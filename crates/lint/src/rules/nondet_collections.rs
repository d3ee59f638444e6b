//! `nondet-collections`: no `HashMap`/`HashSet` in the simulation
//! crates.
//!
//! `std`'s hash containers seed their hasher from process entropy, so
//! iteration order — and therefore any event stream, JSON dump or golden
//! count derived from it — varies run to run. Every keyed container in
//! the simulation crates (and in `bench`, whose test fixtures and
//! `BENCH_kernels.json` writer feed the golden gates) must be a `BTreeMap`
//! / `BTreeSet` or an index-keyed `Vec`. The rule deliberately covers
//! test code too: golden regeneration runs through it.

use super::{Rule, SIM_CRATES};
use crate::diag::Finding;
use crate::source::SourceFile;

pub struct NondetCollections;

const BANNED: [&str; 2] = ["HashMap", "HashSet"];

impl Rule for NondetCollections {
    fn id(&self) -> &'static str {
        "nondet-collections"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet are banned in simulation crates: iteration order is nondeterministic"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !SIM_CRATES.contains(&file.crate_name()) {
            return;
        }
        for tok in file.code_tokens() {
            if BANNED.iter().any(|b| tok.is_ident(b)) {
                out.push(Finding {
                    rule: self.id(),
                    file: file.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{}` in simulation crate `{}`: iteration order is seeded per process",
                        tok.text,
                        file.crate_name()
                    ),
                    rationale: "use BTreeMap/BTreeSet (ordered) or a Vec keyed by dense index \
                                so replay and golden files stay bit-identical",
                });
            }
        }
    }
}
