package netsim

// CheckStateReplay exposes checkStateReplay to the external tests of
// scenarios built by other packages.
var CheckStateReplay = checkStateReplay
