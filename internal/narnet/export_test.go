package narnet

// SineSeries is the series generator, for the tests of the external
// package.
var SineSeries = sineSeries
