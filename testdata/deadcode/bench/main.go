// Command bench stands for a frozen benchmark directory.
package main

func main() {}
