package store

// LegacyNames lets the external tests plant the files format version 1
// left beside the segment.
var LegacyNames = legacyNames
