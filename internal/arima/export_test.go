package arima

// The series generators, for the tests of the external package.
var (
	SimulateARMA   = simulateARMA
	SeasonalSeries = seasonalSeries
)
