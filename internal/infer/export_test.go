package infer

// NatSrc is the package's small NAT test program, for the external tests.
const NatSrc = natSrc
