package parser

// ParseWindow exposes the parser with a token window of n >= 2 to the
// external tests.
var ParseWindow = parseTimed
