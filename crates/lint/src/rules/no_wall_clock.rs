//! `no-wall-clock`: no `Instant::now`/`SystemTime` outside timing code.
//!
//! Why: the simulator's only clock is `dqa_sim::SimTime`, advanced by the
//! event loop. Wall-clock reads inside model or kernel code smuggle
//! host-machine state into a run: two replications of the same seed then
//! disagree, and the CRN byte-identity guarantee is gone. Wall time is
//! legitimate only where we *measure the simulator itself* — the bench
//! crate's binaries (`perf_ledger`, `perf_mva`) — which `lint.toml`
//! scopes out.

use crate::config::RuleConfig;
use crate::diagnostics::Finding;
use crate::engine::SourceFile;
use crate::lexer::TokenKind;
use crate::rules::Rule;

/// See the module docs.
pub struct NoWallClock;

/// The rule name.
pub const NAME: &str = "no-wall-clock";

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no Instant/SystemTime outside timing/bench code (wall time is nondeterministic)"
    }

    fn check_file(&self, file: &SourceFile, _cfg: &RuleConfig, out: &mut Vec<Finding>) {
        for tok in file.code_tokens() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let text = tok.text(&file.text);
            if text == "Instant" || text == "SystemTime" {
                out.push(
                    file.finding(
                        NAME,
                        tok.start,
                        format!("`{text}` referenced in deterministic code"),
                        Some(
                            "simulation code must read time only from dqa_sim::SimTime; \
                         wall-clock measurement belongs in the bench binaries"
                                .to_string(),
                        ),
                    ),
                );
            }
        }
    }
}
