package scan

// Tiers: every finished Result names the tier that produced its verdict.
// The tiered pipeline exists because the corpus cost distribution is wildly
// asymmetric — most real-world scripts are plainly benign, and spending a
// full parse + embed + classify on each of them buys nothing. The triage
// tier answers those in microseconds; everything it cannot clear escalates
// to the full pipeline, whose behavior is unchanged.
const (
	// TierTriage: the lexical pre-filter cleared the script as benign
	// without parsing (Config.Triage enabled and suspicion below
	// threshold). Triage never produces a malicious verdict.
	TierTriage = "triage"
	// TierPipeline: the full parse → embed → classify pipeline decided.
	TierPipeline = "pipeline"
	// TierCache: the verdict was served from the verdict cache. The
	// producing tier travels with the entry only for the audit record's
	// cache_tier (audit.Record.CacheTier).
	TierCache = "cache"
	// TierRules: the declarative rules layer decided — a deny-list hit or
	// a forcing signature forced malicious, or an allow-list hit
	// short-circuited benign — and the model never ran (or its score was
	// overridden). Result.RuleHits names the rules.
	TierRules = "rules"
	// TierFallback: the pipeline could not finish and the heuristic
	// fallback answered (Verdict is degraded).
	TierFallback = "fallback"
	// TierNone: nothing produced a verdict (failed; fallback disabled or
	// itself broken).
	TierNone = "none"
)
