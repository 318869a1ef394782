package contour

// BenchReports exposes benchReports to the external test package, which
// can import the simulator without an import cycle.
var BenchReports = benchReports
