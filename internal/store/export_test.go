package store

// ReadRunFile exposes the run loader to the external fuzz test.
var ReadRunFile = readRunFile
