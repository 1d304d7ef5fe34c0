package csi

// Hooks for the external test package, which compiles whole programs
// and so cannot live in package csi: the compiler imports it.
var (
	CompareWithReference = compareWithReference
	CheckCandidateCount  = checkCandidateCount
)
