package oracle

// BetterResult exports FindStatic's selection rule to the external tests.
var BetterResult = betterResult
