package parser

// The reference front end, for the differential tests outside the
// package (they compare manifests, and internal/incr imports this
// package).
var (
	RefParse         = refParse
	RefParseBoolExpr = refParseBoolExpr
)
