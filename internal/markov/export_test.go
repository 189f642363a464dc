package markov

// AnalyzePairDense exposes the dense reference analysis to the external
// oracle tests, which build their chains with relmodel.
var AnalyzePairDense = analyzePairDense

// ResultsEqualBits compares two results bit for bit.
var ResultsEqualBits = resultsEqualBits
